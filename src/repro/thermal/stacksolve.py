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
``S = G_pp - G_pd G_dd^-1 G_dp`` for the package.

A die-side right-hand side then costs a scaling in the eigenbasis, a
solve against ``S`` and a separable transform back to cells: two
batches of ``ny`` (resp. ``nx``) small GEMMs per die, ``nx + ny``
multiply-adds per output entry instead of the ``m`` of a dense ``Q``.
The small GEMMs stay below the size at which BLAS spreads work over
threads, and ``S`` is solved by LAPACK's symmetric ``sysv``, which
OpenBLAS runs on the calling thread: the build neither waits on BLAS
worker threads nor changes its bits with their number.

:class:`DieStackSolver` reads ``L``, ``T`` and the package coupling off
the assembled matrix and checks that ``G_dd`` really is that Kronecker
sum; a network whose dies differ raises :class:`ThermalModelError`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, solve

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


class DieStackSolver:
    """Die temperatures of a stacked network from its Kronecker structure.

    Args:
        network: the assembled network (read through
            :meth:`~repro.thermal.network.ThermalNetwork.conductance_matrix`;
            never factorized).
        die_names: the die layers, bottom first. Every other layer is
            package.

    Raises:
        ThermalModelError: the dies do not share one lateral block with
            cell-to-cell vertical coupling, or there is no package.
        SingularNetworkError: the stack has no path to any boundary.
    """

    def __init__(self, network: ThermalNetwork,
                 die_names: Sequence[str]) -> None:
        dies = [network.layer_named(name) for name in die_names]
        nx, ny = dies[0].nx, dies[0].ny
        if any((d.nx, d.ny) != (nx, ny) for d in dies):
            raise ThermalModelError(
                "structured stack solve: die layers have different grids")
        m, h = nx * ny, len(dies)
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
        #: green[k, i, j] = ((T + lam_k I)^-1)[i, j]
        self._green = (v[None, :, :] / denom[:, None, :]) @ v.T
        self._nx, self._ny, self._h = nx, ny, h

        # package coupling (die a's cells -> its package neighbours) and
        # the Schur complement S = G_pp - sum_ab C_a^T Q g_ab Q^T C_b
        coupling = g[:nd, nd:]
        rows = np.repeat(np.arange(nd), np.diff(coupling.indptr))
        self._coupled = []
        for a in np.unique(rows // m):
            c_a = coupling[a * m:(a + 1) * m]
            cols = np.unique(c_a.indices)
            self._coupled.append((a, cols, c_a[:, cols]))
        self._schur = g[nd:, nd:].toarray()
        for b, cols_b, c_b in self._coupled:
            c_hat = self._modes(c_b.toarray())
            for a, cols_a, c_a in self._coupled:
                self._schur[np.ix_(cols_a, cols_b)] -= c_a.T @ self._cells(
                    self._green[:, a, b, None] * c_hat)
        source = network.boundary_source()
        self._source_d = source[die_idx].reshape(h, m).T
        self._source_p = source[pkg_idx]

    def _modes(self, x: np.ndarray) -> np.ndarray:
        """``Q^T x`` for cell rows ``x`` of shape ``(m, n)``."""
        ny, nx = self._ny, self._nx
        z = np.matmul(self._wx.T, x.reshape(ny, nx, -1))
        z = np.matmul(self._wy.T, z.transpose(1, 0, 2))
        return z.transpose(1, 0, 2).reshape(nx * ny, -1)

    def _cells(self, x_hat: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """``Q x_hat`` for mode rows ``x_hat`` of shape ``(m, n)``,
        written into the C-contiguous ``out`` when given."""
        ny, nx = self._ny, self._nx
        if out is None:
            out = np.empty(x_hat.shape)
        z = np.matmul(self._wx, x_hat.reshape(ny, nx, -1))
        np.matmul(self._wy, z.transpose(1, 0, 2),
                  out=out.reshape(ny, nx, -1).transpose(1, 0, 2))
        return out

    def response(self, bases: Sequence[np.ndarray]) -> np.ndarray:
        """The homogeneous response array of the stack.

        Args:
            bases: per die, bottom first, an ``(m, k)`` array whose
                columns are unit-power injections in cell watts (the
                same ``k`` for every die). Dies passing the same array
                object share its transform.

        Returns:
            ``(h * m, 1 + h * k)`` array: column 0 the ambient-only die
            temperatures, then each die's basis responses, die-major.
        """
        h, green = self._h, self._green
        m = self._nx * self._ny
        if len(bases) != h:
            raise ThermalModelError(
                f"need one basis per die ({h}), got {len(bases)}")
        hats = {id(u): self._modes(u) for u in bases}
        basis = np.stack([hats[id(u)] for u in bases], axis=1)  # (m, h, k)
        n_cols = 1 + basis[0].size
        # G_dd^-1 of the dies' own boundary source, in eigen-coordinates
        ambient = np.einsum("kij,kj->ki", green,
                            self._modes(self._source_d))
        free = np.empty((m, n_cols))

        def die_free(i: int) -> np.ndarray:
            """Die i's eigen-coordinates of ``G_dd^-1 f`` per column."""
            free[:, 0] = ambient[:, i]
            # a view: only the contiguous column axis is split
            np.multiply(green[:, i, :, None], basis,
                        out=free[:, 1:].reshape(basis.shape))
            return free

        # package temperatures: S x_p = f_p - G_pd G_dd^-1 f_d
        rhs = np.zeros((self._source_p.size, n_cols), order="F")
        rhs[:, 0] = self._source_p
        for a, cols, c_a in self._coupled:
            rhs[cols] -= c_a.T @ self._cells(die_free(a))
        try:
            # sysv, not Cholesky: OpenBLAS threads potrf/potrs, and the
            # operator's bits would follow the BLAS thread count
            x_p = solve(self._schur, rhs, assume_a="sym", overwrite_b=True,
                        check_finite=False)
        except LinAlgError as exc:
            raise SingularNetworkError(
                f"package Schur complement is singular: {exc}; check "
                f"that every layer is connected to a boundary") from exc
        # ... as seen by each coupled die, in its eigen-coordinates
        ports = [a for a, _, _ in self._coupled]
        seen = np.empty((len(ports), m, n_cols))
        for s, (_, cols, c_a) in zip(seen, self._coupled):
            s[:] = self._modes(c_a @ x_p[cols])
        del rhs, x_p        # before the operator array: peak memory

        arr = np.empty((h * m, n_cols))
        for i in range(h):
            x = die_free(i)
            x -= np.einsum("ka,akn->kn", green[:, i, ports], seen)
            self._cells(x, out=arr[i * m:(i + 1) * m])
        t0 = arr[:, 0]
        if not (np.all(np.isfinite(t0)) and np.abs(t0).max() < 1e12):
            raise SingularNetworkError(
                "conductance matrix is singular (a layer or island has no "
                "path to any boundary)")
        return arr
