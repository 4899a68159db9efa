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
``(T + lam_k I)^-1``. The package nodes (board, substrate, spreader,
sink) touch the dies only through the bottom and top die, so
eliminating the dies leaves the package system ``S = G_pkg - W`` with
``W = G_pd G_dd^-1 G_dp``. ``W`` is nonzero only on the *ports*: the
package cells the bottom and top die couple to (20 of 256 for the CMPs
at the default grids). The dies' right-hand side enters the package
only there, and the back-substitution reads the package only there.
So the inner package nodes ``I`` are eliminated once, leaving

    C = G_PP - G_PI G_II^-1 G_IP,    s = f_P - G_PI G_II^-1 f_I

over the ports ``P``; neither depends on the dies, and each stack
factors only ``S_P = C - W_PP``.

The cooling option enters the network only at the package boundary:
the sink's top face and the board's bottom face. Everything on the die
side of the elimination — the eigenbasis, the Green's functions, the
die-package coupling, the dies' boundary source and ``W`` — is the same
under every coolant, so the solve comes in two factors:

* :class:`DieFactor`, one per die stack, read off any coolant's
  assembled network;
* :class:`PackageFactor`, one per coolant, ``S_P`` from the die factor
  and the coolant's :class:`PackageBlock`, factored by LAPACK's
  symmetric ``dsytrf``. The block, the coolant's package layers alone
  (:func:`~repro.thermal.package.build_package_network`) condensed
  onto the ports, depends on the die outline but not on the stack
  height, so every height under one coolant shares it.

A query (:meth:`PackageFactor.temperatures`) pushes one block-power
vector through both: per die the unit-power basis in modes times its
block powers, the Green's functions, one ``dsytrs`` against ``S_P``,
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
from scipy.sparse import csr_matrix

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


def _factor(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK ``dsytrf`` of the symmetric ``a`` (overwritten)."""
    lwork = int(dsytrf_lwork(a.shape[0])[0])
    lu, ipiv, info = dsytrf(a, lwork=lwork, overwrite_a=True)
    if info > 0:
        raise SingularNetworkError(
            f"{what} is singular; check that every layer is connected to "
            f"a boundary")
    return lu, ipiv


class DieFactor:
    """The cooling-independent half of a die stack's structured solve.

    Args:
        network: the stack's assembled network under any cooling option
            (read through
            :meth:`~repro.thermal.network.ThermalNetwork.conductance_matrix`;
            never factorized), its dies contiguous in node order.
        die_names: the die layers, bottom first. Every other layer is
            package.
        bases: per die, bottom first, an ``(m, k)`` array whose columns
            are unit-power injections in cell watts (the same ``k`` for
            every die). Dies passing the same array object share its
            transform.

    Raises:
        ThermalModelError: the dies are not contiguous, do not share one
            lateral block with cell-to-cell vertical coupling, there is
            no package, or the bases do not match the dies.
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
        nd = h * m
        d0 = network.node_index(die_names[0], 0, 0)
        if any(network.node_index(name, 0, 0) != d0 + i * m
               for i, name in enumerate(die_names)):
            raise ThermalModelError(
                "structured stack solve: the die layers are not "
                "contiguous in node order")
        if network.num_nodes == nd:
            raise ThermalModelError(
                "structured stack solve needs package layers")
        # the die rows of G: G_dd, and the coupling to the package
        # columns, numbered as in the package network
        rows = network.conductance_matrix().tocsr()[d0:d0 + nd].tocoo()
        col = rows.col - d0
        in_die = (col >= 0) & (col < nd)
        r, c, g_dd = rows.row[in_die], col[in_die], rows.data[in_die]

        # L from die 0's x and y neighbour conductances, with the
        # zero-row-sum diagonal, so every uniform on-site term lands in T
        row0 = np.zeros(nd)
        row0[c[r == 0]] = g_dd[r == 0]
        gx = -row0[1] if nx > 1 else 0.0
        gy = -row0[nx] if ny > 1 else 0.0
        px, py = _chain_laplacian(nx), _chain_laplacian(ny)
        corner = (r % m == 0) & (c % m == 0)
        t = np.zeros((h, h))
        t[r[corner] // m, c[corner] // m] = g_dd[corner]
        t -= (gx * px[0, 0] + gy * py[0, 0]) * np.eye(h)
        # every stored entry of G_dd must be that of I (x) L + T (x) I,
        # and every nonzero of I (x) L + T (x) I must be stored; the
        # entry of L is gx Px + gy Py at the cells' x and y indices
        (die_r, cell_r), (die_c, cell_c) = np.divmod(r, m), np.divmod(c, m)
        (y_r, x_r), (y_c, x_c) = np.divmod(cell_r, nx), np.divmod(cell_c, nx)
        lateral = (gx * np.where(y_r == y_c, px[x_r, x_c], 0.0)
                   + gy * np.where(x_r == x_c, py[y_r, y_c], 0.0))
        want = (np.where(die_r == die_c, lateral, 0.0)
                + np.where(cell_r == cell_c, t[die_r, die_c], 0.0))
        n_lateral = ny * _off_diagonal(gx * px) + nx * _off_diagonal(gy * py)
        n_want = h * (n_lateral + m) + m * _off_diagonal(t)
        if (g_dd.size != n_want or np.abs(g_dd - want).max()
                > STRUCTURE_RTOL * np.abs(g_dd).max()):
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
        self.source_hat = self.modes(source[d0:d0 + nd].reshape(h, m).T)
        #: package layers this factor pairs with, in node order
        self.package_layers = _package_layers(network, die_names)

        # package coupling: die a's cells -> its package neighbours
        out = ~in_die
        r, c, data = rows.row[out], rows.col[out], rows.data[out]
        # the ports, and each coupling entry's position among them
        ports, at = np.unique(np.where(c < d0, c, c - nd),
                              return_inverse=True)
        ports.setflags(write=False)
        #: package nodes the dies couple to, ascending (read-only)
        self.ports = ports
        coupled = []
        for a in np.unique(r // m):
            mine = r // m == a
            pos, local = np.unique(at[mine], return_inverse=True)
            coupled.append((a, pos, csr_matrix(
                (data[mine], (r[mine] - a * m, local)), shape=(m, pos.size))))
        #: per coupled die ``a``: its positions among the ports and
        #: ``Q^T C_a``
        self.coupled = tuple((a, pos, self.modes(c_a.toarray()))
                             for a, pos, c_a in coupled)
        # W = sum_ab C_a^T Q g_ab Q^T C_b over the coupled dies
        w = np.zeros((ports.size, ports.size))
        for (b, pos_b, _), (_, _, c_hat) in zip(coupled, self.coupled):
            for a, pos_a, c_a in coupled:
                w[np.ix_(pos_a, pos_b)] += c_a.T @ self.cells(
                    self.green[:, a, b, None] * c_hat)
        # The package network holds no die, so its diagonal lacks the
        # die interfaces' share of G_pp: the coupling's column sums, on
        # the ports by their definition. Fold that share into W here.
        w[np.diag_indices_from(w)] += np.bincount(at, weights=data,
                                                  minlength=ports.size)
        #: ``S_P = C - w`` for every coolant's :class:`PackageBlock`
        #: ``C`` condensed onto :attr:`ports`
        self.w = w

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
    """One coolant's package network condensed onto the ports, once.

    The inner nodes ``I`` (every package node but the ports ``P``) are
    eliminated through one ``dsytrf`` of ``G_II``; the block keeps only
    the read-only ``C = G_PP - G_PI G_II^-1 G_IP`` and
    ``s = f_P - G_PI G_II^-1 f_I``.

    Args:
        package: the coolant's package layers alone
            (:func:`~repro.thermal.package.build_package_network`): the
            package block of the full network, less the die interfaces'
            share of its diagonal, which a :class:`DieFactor` carries.
        ports: the package nodes the dies couple to, ascending
            (:attr:`DieFactor.ports`).

    Raises:
        ThermalModelError: ``ports`` is not an ascending set of some but
            not all of the package's nodes.
        SingularNetworkError: the inner package nodes have no path to a
            boundary.
    """

    def __init__(self, package: ThermalNetwork, ports: np.ndarray) -> None:
        g = package.conductance_matrix().tocsr()
        n = g.shape[0]
        ports = np.array(ports)
        if not (ports.ndim == 1 and ports.dtype.kind in "iu"
                and 0 < ports.size < n and ports[0] >= 0
                and ports[-1] < n and np.all(np.diff(ports) > 0)):
            raise ThermalModelError(
                f"package ports must be ascending nodes of the {n}-node "
                f"package, some but not all, got {ports}")
        inner = np.ones(n, dtype=bool)
        inner[ports] = False
        inner = np.flatnonzero(inner)
        f = package.boundary_source()
        # [X | y] = G_II^-1 [G_IP | f_I]
        g_i = g[inner]
        lu, ipiv = _factor(g_i[:, inner].toarray(order="F"),
                           "inner package network")
        rhs = np.empty((inner.size, ports.size + 1), order="F")
        rhs[:, :-1] = g_i[:, ports].toarray()
        rhs[:, -1] = f[inner]
        x, _ = dsytrs(lu, ipiv, rhs, overwrite_b=True)
        g_p = g[ports]
        z = g_p[:, inner] @ x
        #: ``C``, the package conductance condensed onto the ports
        self.c = g_p[:, ports].toarray() - z[:, :-1]
        #: ``s``, the package boundary source condensed onto the ports
        self.source = f[ports] - z[:, -1]
        #: the package nodes ``C`` and ``s`` are condensed onto
        self.ports = ports
        for a in (self.c, self.source, self.ports):
            a.setflags(write=False)
        #: ``(name, cells)`` of the package layers, in node order
        self.layers = _package_layers(package)


class PackageFactor:
    """One coolant's package solve on top of a shared :class:`DieFactor`.

    Args:
        die: the stack's die factor.
        block: the coolant's package block, condensed onto the die
            factor's ports.

    Raises:
        ThermalModelError: ``block`` has other layers than the package
            ``die`` was read from, or was condensed onto other ports.
        SingularNetworkError: the package Schur complement is singular.
    """

    def __init__(self, die: DieFactor, block: PackageBlock) -> None:
        if block.layers != die.package_layers:
            raise ThermalModelError(
                f"package layers {block.layers} do not match the die "
                f"factor's {die.package_layers}")
        if not np.array_equal(block.ports, die.ports):
            raise ThermalModelError(
                "package block was condensed onto other ports than the "
                "die factor couples to")
        s = block.c.copy(order="F")
        s -= die.w
        self._lu, self._ipiv = _factor(s, "package Schur complement")
        self._source = block.source
        #: the die factor this package solve was built on
        self.die = die

    def temperatures(self, p: np.ndarray) -> np.ndarray:
        """Die temperatures (flat, die-major, Celsius) for block powers.

        Args:
            p: per-(die, block) watts, dies bottom first, each die's
                blocks in its basis column order.

        Raises:
            ThermalModelError: ``p`` has the wrong shape, or an entry
                that is not finite or is negative.
            SingularNetworkError: the answer is not finite or not
                physical (a layer or island has no path to a boundary).
        """
        die = self.die
        h = die.n_dies
        k = die.basis_hat[0].shape[1]
        if p.shape != (h * k,):
            raise ThermalModelError(
                f"power vector must have shape ({h * k},), got {p.shape}")
        if not np.isfinite(p).all():
            raise ThermalModelError(
                "power vector contains non-finite block powers (NaN/Inf)")
        if (p < 0).any():
            raise ThermalModelError(
                "power vector contains negative block powers")
        # per die, the basis in modes times its block powers, plus the
        # dies' own boundary source
        y = die.source_hat.copy()
        for i, b_hat in enumerate(die.basis_hat):
            y[:, i] += b_hat @ p[i * k:(i + 1) * k]
        # G_dd^-1 of that, in eigen-coordinates
        x = np.einsum("kij,kj->ki", die.green, y)
        # port temperatures: S_P x_P = s - G_Pd G_dd^-1 f_d
        rhs = self._source.copy()
        for a, pos, port in die.coupled:
            rhs[pos] -= x[:, a] @ port
        x_p, _ = dsytrs(self._lu, self._ipiv, rhs[:, None],
                        overwrite_b=True)
        # back-substitute the package as each coupled die sees it
        for a, pos, port in die.coupled:
            x -= die.green[:, :, a] * (port @ x_p[pos])
        t = die.cells(x).T.ravel()
        if not (np.all(np.isfinite(t)) and np.abs(t).max() < 1e12):
            raise SingularNetworkError(
                "conductance matrix is singular (a layer or island has no "
                "path to any boundary)")
        return t
