"""Structured steady-state solve of a die stack inside its package.

Every die of a 3-D stack is the same grid of the same material, so all
die layers share one lateral conduction block ``L`` (``m = nx * ny``
cells), and adjacent dies couple cell to cell. The die part of the
conductance matrix is therefore the Kronecker sum

    G_dd = I_h (x) L + T (x) I_m

with ``T`` the ``h x h`` vertical coupling matrix (tridiagonal for a
stack; its diagonal also carries the bottom die's coupling to the
substrate and the top die's coupling to the spreader). ``L`` is itself
a Kronecker sum over a uniform grid, ``gx I (x) Px + gy Py (x) I`` with
``P`` the chain Laplacian, so its eigenbasis is ``Q = Wy (x) Wx`` from
two ``eigh`` calls of size ``ny`` and ``nx``. In the ``V (x) Q`` basis
(``T = V diag(theta) V^T``) ``G_dd`` is diagonal, and per lateral mode
``k`` the stack is the ``h x h`` Green's function
``(T + lam_k I)^-1``. The few package nodes (board, substrate,
spreader, sink) touch the dies only through the bottom and top die, so
eliminating the dies leaves one small dense Schur complement
``S = G_pp - W`` with ``W = G_pd G_dd^-1 G_dp`` for the package.

The cooling option enters the network only at the package boundary:
the sink's top face and the board's bottom face. Everything on the die
side of the elimination — the eigenbasis, the Green's functions, the
die-package coupling, the dies' boundary source and ``W`` — is the same
under every coolant, so the solve comes in two factors:

* :class:`DieFactor`, one per die stack, read off any coolant's
  assembled network;
* :class:`PackageFactor`, one per coolant, ``S`` assembled from the die
  factor and the coolant's :class:`PackageBlock` and factored by
  LAPACK's symmetric ``dsytrf``. The block, the coolant's package
  layers alone (:func:`~repro.thermal.package.build_package_network`),
  depends on the die outline but not on the stack height, so every
  height under one coolant shares it.

A query (:meth:`PackageFactor.temperatures`) pushes one block-power
vector through both: per die the unit-power basis in modes times its
block powers, the Green's functions, one ``dsytrs`` against ``S``,
then the back-substitution and a separable transform back to cells
(two batches of ``ny`` (resp. ``nx``) small GEMMs, ``nx + ny``
multiply-adds per output entry instead of the ``m`` of a dense ``Q``).
The small GEMMs stay below the size at which BLAS spreads work over
threads, a threaded matrix-vector product gives each output entry to
one thread, and OpenBLAS runs ``dsytrf`` / ``dsytrs`` on the calling
thread: the answer's bits do not change with the BLAS thread count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs

from ..errors import SingularNetworkError, ThermalModelError
from .network import ThermalNetwork

#: Largest entry of ``G_dd - (I (x) L + T (x) I)`` accepted, relative to
#: the largest entry of ``G_dd``. Summed overlap conductances differ in
#: the last bits from cell to cell; anything larger is another network.
STRUCTURE_RTOL = 1e-12


def _chain_laplacian(n: int) -> np.ndarray:
    """Laplacian of an ``n``-cell chain with unit conductances."""
    p = np.zeros((n, n))
    i = np.arange(n - 1)
    p[i, i + 1] = p[i + 1, i] = -1.0
    p[np.diag_indices(n)] = -p.sum(axis=1)
    return p


def _off_diagonal(a: np.ndarray) -> int:
    """Number of nonzero entries off the diagonal of a square array."""
    return np.count_nonzero(a) - np.count_nonzero(np.diag(a))


def _package_layers(network: ThermalNetwork,
                    skip: Sequence[str] = ()) -> tuple[tuple[str, int], ...]:
    """``(name, cells)`` of every layer not in ``skip``, in node order."""
    return tuple((la.name, la.num_cells) for la in network.layers
                 if la.name not in skip)


class DieFactor:
    """The cooling-independent half of a die stack's structured solve.

    Args:
        network: the stack's assembled network under any cooling option
            (read through
            :meth:`~repro.thermal.network.ThermalNetwork.conductance_matrix`;
            never factorized).
        die_names: the die layers, bottom first. Every other layer is
            package.
        bases: per die, bottom first, an ``(m, k)`` array whose columns
            are unit-power injections in cell watts (the same ``k`` for
            every die). Dies passing the same array object share its
            transform.

    Raises:
        ThermalModelError: the dies do not share one lateral block with
            cell-to-cell vertical coupling, there is no package, or the
            bases do not match the dies.
        SingularNetworkError: the stack has no path to any boundary.
    """

    def __init__(self, network: ThermalNetwork, die_names: Sequence[str],
                 bases: Sequence[np.ndarray]) -> None:
        dies = [network.layer_named(name) for name in die_names]
        nx, ny = dies[0].nx, dies[0].ny
        if any((d.nx, d.ny) != (nx, ny) for d in dies):
            raise ThermalModelError(
                "structured stack solve: die layers have different grids")
        m, h = nx * ny, len(dies)
        if len(bases) != h or len({u.shape for u in bases}) != 1 \
                or bases[0].shape[0] != m:
            raise ThermalModelError(
                f"need one ({m}, k) basis per die ({h}), got "
                f"{[u.shape for u in bases]}")
        die_idx = np.concatenate([network.node_index(name, 0, 0)
                                  + np.arange(m) for name in die_names])
        is_pkg = np.ones(network.num_nodes, dtype=bool)
        is_pkg[die_idx] = False
        pkg_idx = np.flatnonzero(is_pkg)
        if pkg_idx.size == 0:
            raise ThermalModelError(
                "structured stack solve needs package layers")
        nd = h * m
        perm = np.concatenate([die_idx, pkg_idx])
        g = network.conductance_matrix().tocsr()[perm][:, perm]
        g_dd = g[:nd, :nd]

        # L from die 0's x and y neighbour conductances, with the
        # zero-row-sum diagonal, so every uniform on-site term lands in T
        gx = -g_dd[0, 1] if nx > 1 else 0.0
        gy = -g_dd[0, nx] if ny > 1 else 0.0
        px, py = _chain_laplacian(nx), _chain_laplacian(ny)
        lateral = gx * np.kron(np.eye(ny), px) + gy * np.kron(py, np.eye(nx))
        t = g_dd[::m, ::m].toarray() - lateral[0, 0] * np.eye(h)
        # every stored entry of G_dd must be that of I (x) L + T (x) I,
        # and every nonzero of I (x) L + T (x) I must be stored
        stored = g_dd.tocoo()
        (die_r, cell_r), (die_c, cell_c) = (np.divmod(stored.row, m),
                                            np.divmod(stored.col, m))
        want = (np.where(die_r == die_c, lateral[cell_r, cell_c], 0.0)
                + np.where(cell_r == cell_c, t[die_r, die_c], 0.0))
        n_want = h * (_off_diagonal(lateral) + m) + m * _off_diagonal(t)
        if (stored.nnz != n_want or np.abs(stored.data - want).max()
                > STRUCTURE_RTOL * np.abs(stored.data).max()):
            raise ThermalModelError(
                "structured stack solve: the die layers do not share one "
                "lateral conduction block with cell-to-cell vertical "
                "coupling")
        mu_x, self._wx = np.linalg.eigh(px)
        mu_y, self._wy = np.linalg.eigh(py)
        lam = (gy * mu_y[:, None] + gx * mu_x[None, :]).ravel()
        theta, v = np.linalg.eigh(t)
        denom = theta[None, :] + lam[:, None]          # (m, h) eigenvalues
        if not denom.min() > 1e-12 * denom.max():
            raise SingularNetworkError(
                "die stack has no path to any boundary")
        self._nx, self._ny = nx, ny
        #: green[k, i, j] = ((T + lam_k I)^-1)[i, j]
        self.green = (v[None, :, :] / denom[:, None, :]) @ v.T
        #: per die, the unit-power basis in modes, ``(m, k)``
        hats = {id(u): self.modes(u) for u in bases}
        self.basis_hat = tuple(hats[id(u)] for u in bases)
        source = network.boundary_source()
        #: the dies' boundary source in modes, ``(m, h)``
        self.source_hat = self.modes(source[die_idx].reshape(h, m).T)
        #: package layers this factor pairs with, in node order
        self.package_layers = _package_layers(network, die_names)

        # package coupling (die a's cells -> its package neighbours) and
        # W = sum_ab C_a^T Q g_ab Q^T C_b over the coupled dies
        coupling = g[:nd, nd:]
        rows = np.repeat(np.arange(nd), np.diff(coupling.indptr))
        coupled = []
        for a in np.unique(rows // m):
            c_a = coupling[a * m:(a + 1) * m]
            cols = np.unique(c_a.indices)
            coupled.append((a, cols, c_a[:, cols]))
        #: per coupled die ``a``: its package columns and ``Q^T C_a``
        self.ports = tuple((a, cols, self.modes(c_a.toarray()))
                           for a, cols, c_a in coupled)
        w = np.zeros((pkg_idx.size, pkg_idx.size))
        for (b, cols_b, _), (_, _, c_hat) in zip(coupled, self.ports):
            for a, cols_a, c_a in coupled:
                w[np.ix_(cols_a, cols_b)] += c_a.T @ self.cells(
                    self.green[:, a, b, None] * c_hat)
        # The package network holds no die, so its diagonal lacks the
        # die interfaces' share of G_pp; fold that share into W here.
        w[np.diag_indices_from(w)] += np.asarray(
            coupling.sum(axis=0)).ravel()
        #: ``S = G_pkg - w`` for every coolant's package network ``G_pkg``
        #: (Fortran order, as LAPACK takes ``S``)
        self.w = np.asfortranarray(w)

    @property
    def n_dies(self) -> int:
        """Stack height."""
        return self.green.shape[1]

    def modes(self, x: np.ndarray) -> np.ndarray:
        """``Q^T x`` for cell rows ``x`` of shape ``(m, n)``."""
        ny, nx = self._ny, self._nx
        z = np.matmul(self._wx.T, x.reshape(ny, nx, -1))
        z = np.matmul(self._wy.T, z.transpose(1, 0, 2))
        return z.transpose(1, 0, 2).reshape(nx * ny, -1)

    def cells(self, x_hat: np.ndarray) -> np.ndarray:
        """``Q x_hat`` for mode rows ``x_hat`` of shape ``(m, n)``."""
        ny, nx = self._ny, self._nx
        out = np.empty(x_hat.shape)
        z = np.matmul(self._wx, x_hat.reshape(ny, nx, -1))
        np.matmul(self._wy, z.transpose(1, 0, 2),
                  out=out.reshape(ny, nx, -1).transpose(1, 0, 2))
        return out


class PackageBlock:
    """One coolant's package network, assembled once and read-only.

    Args:
        package: the coolant's package layers alone
            (:func:`~repro.thermal.package.build_package_network`): the
            package block of the full network, less the die interfaces'
            share of its diagonal, which a :class:`DieFactor` carries.
    """

    def __init__(self, package: ThermalNetwork) -> None:
        #: the dense conductance ``G_pkg`` (Fortran order, as LAPACK
        #: takes ``S``)
        self.g = package.conductance_matrix().toarray(order="F")
        #: the boundary source ``B T_amb`` of the package nodes
        self.source = package.boundary_source()
        for a in (self.g, self.source):
            a.setflags(write=False)
        #: ``(name, cells)`` of the package layers, in node order
        self.layers = _package_layers(package)


class PackageFactor:
    """One coolant's package solve on top of a shared :class:`DieFactor`.

    Args:
        die: the stack's die factor.
        block: the coolant's package block.

    Raises:
        ThermalModelError: ``block`` has other layers than the package
            ``die`` was read from.
        SingularNetworkError: the package Schur complement is singular.
    """

    def __init__(self, die: DieFactor, block: PackageBlock) -> None:
        if block.layers != die.package_layers:
            raise ThermalModelError(
                f"package layers {block.layers} do not match the die "
                f"factor's {die.package_layers}")
        s = block.g.copy(order="F")
        s -= die.w
        lwork = int(dsytrf_lwork(s.shape[0])[0])
        self._lu, self._ipiv, info = dsytrf(s, lwork=lwork, overwrite_a=True)
        if info > 0:
            raise SingularNetworkError(
                "package Schur complement is singular; check that every "
                "layer is connected to a boundary")
        self._source = block.source
        #: the die factor this package solve was built on
        self.die = die

    def temperatures(self, p: np.ndarray) -> np.ndarray:
        """Die temperatures (flat, die-major, Celsius) for block powers.

        Args:
            p: per-(die, block) watts, dies bottom first, each die's
                blocks in its basis column order.

        Raises:
            ThermalModelError: ``p`` has the wrong shape.
            SingularNetworkError: the answer is not finite or not
                physical (a layer or island has no path to a boundary).
        """
        die = self.die
        h = die.n_dies
        k = die.basis_hat[0].shape[1]
        if p.shape != (h * k,):
            raise ThermalModelError(
                f"power vector must have shape ({h * k},), got {p.shape}")
        # per die, the basis in modes times its block powers, plus the
        # dies' own boundary source
        y = die.source_hat.copy()
        for i, b_hat in enumerate(die.basis_hat):
            y[:, i] += b_hat @ p[i * k:(i + 1) * k]
        # G_dd^-1 of that, in eigen-coordinates
        x = np.einsum("kij,kj->ki", die.green, y)
        # package temperatures: S x_p = f_p - G_pd G_dd^-1 f_d
        rhs = self._source.copy()
        for a, cols, port in die.ports:
            rhs[cols] -= x[:, a] @ port
        x_p, _ = dsytrs(self._lu, self._ipiv, rhs[:, None],
                        overwrite_b=True)
        # back-substitute the package as each coupled die sees it
        for a, cols, port in die.ports:
            x -= die.green[:, :, a] * (port @ x_p[cols])
        t = die.cells(x).T.ravel()
        if not (np.all(np.isfinite(t)) and np.abs(t).max() < 1e12):
            raise SingularNetworkError(
                "conductance matrix is singular (a layer or island has no "
                "path to any boundary)")
        return t
