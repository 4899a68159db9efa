"""Thermal network assembly and steady-state solution.

The steady-state heat equation on the compact network is the linear
system

    G T = P + B T_amb

where G is the (symmetric positive definite) conductance matrix, P the
per-cell injected power, and B the diagonal of boundary conductances
(each multiplied by its own ambient temperature on the right-hand
side). G depends only on geometry/materials/boundaries. Assembly and
factorization are separate, lazy steps: :meth:`conductance_matrix`,
:meth:`boundary_conductances` and :meth:`heat_balance` only assemble
(the structured die-stack solver in :mod:`repro.thermal.stacksolve`
reads G and needs nothing more), while the first :meth:`solve`
factorizes G once (sparse LU via ``scipy.sparse.linalg.splu``) and
re-uses the factor for every later power vector.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu

from ..errors import SingularNetworkError, ThermalModelError
from ..obs import counter, histogram, span
from .layers import Boundary, GridLayer, Interface, overlap_matrix


class ThermalResult:
    """Solution of one steady-state solve.

    Provides per-layer 2-D temperature fields (Celsius) and summary
    queries. Row index 0 is the bottom (y = outline.y) row, matching the
    floorplan rasterizer.
    """

    def __init__(self, layer_fields: dict[str, np.ndarray]) -> None:
        self._fields = layer_fields

    def layer(self, name: str) -> np.ndarray:
        """The (ny, nx) temperature field of one layer, Celsius."""
        try:
            return self._fields[name]
        except KeyError:
            known = ", ".join(sorted(self._fields))
            raise ThermalModelError(
                f"no layer {name!r} in result; layers: {known}"
            ) from None

    @property
    def layer_names(self) -> tuple[str, ...]:
        """All layer names in stack order."""
        return tuple(self._fields)

    def max_of(self, name: str) -> float:
        """Maximum temperature within one layer, Celsius."""
        return float(self.layer(name).max())

    def max_over(self, names: tuple[str, ...] | list[str]) -> float:
        """Maximum temperature over several layers, Celsius."""
        if not names:
            raise ThermalModelError("max_over needs at least one layer")
        return max(self.max_of(n) for n in names)

    def global_max(self) -> float:
        """Maximum temperature anywhere in the network, Celsius."""
        return max(float(f.max()) for f in self._fields.values())


class ThermalNetwork:
    """A fixed network (geometry + materials + boundaries) ready to solve.

    Args:
        layers: bottom-to-top stack of grid layers; names must be unique.
        interfaces: vertical couplings. Every interface must reference
            existing layers; layers not coupled (directly or transitively)
            to a boundary make the system singular and are rejected at
            factorization time.
        boundaries: convective boundaries.
    """

    def __init__(self, layers: list[GridLayer] | tuple[GridLayer, ...],
                 interfaces: list[Interface] | tuple[Interface, ...],
                 boundaries: list[Boundary] | tuple[Boundary, ...]) -> None:
        if not layers:
            raise ThermalModelError("a network needs at least one layer")
        names = [la.name for la in layers]
        if len(set(names)) != len(names):
            raise ThermalModelError(f"duplicate layer names in {names}")
        self.layers: tuple[GridLayer, ...] = tuple(layers)
        self.interfaces: tuple[Interface, ...] = tuple(interfaces)
        self.boundaries: tuple[Boundary, ...] = tuple(boundaries)
        self._by_name = {la.name: la for la in self.layers}
        for itf in self.interfaces:
            for side in (itf.lower, itf.upper):
                if side not in self._by_name:
                    raise ThermalModelError(
                        f"interface references unknown layer {side!r}"
                    )
        for b in self.boundaries:
            if b.layer not in self._by_name:
                raise ThermalModelError(
                    f"boundary references unknown layer {b.layer!r}"
                )
        if not self.boundaries:
            raise SingularNetworkError(
                "network has no convective boundary: steady state is "
                "undefined (all injected heat has nowhere to go)"
            )
        # node numbering: layers in declaration order, row-major cells
        self._offsets: dict[str, int] = {}
        off = 0
        for la in self.layers:
            self._offsets[la.name] = off
            off += la.num_cells
        self._n = off
        self._lu = None
        self._g: csc_matrix | None = None
        self._boundary_g: np.ndarray | None = None
        self._boundary_tamb: np.ndarray | None = None

    # -- structure queries --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total cell count across layers."""
        return self._n

    def layer_named(self, name: str) -> GridLayer:
        """Look up a layer by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ThermalModelError(f"no layer named {name!r}") from None

    def node_index(self, layer: str, ix: int, iy: int) -> int:
        """Global node index of cell (ix, iy) in a layer."""
        la = self.layer_named(layer)
        if not (0 <= ix < la.nx and 0 <= iy < la.ny):
            raise ThermalModelError(
                f"cell ({ix}, {iy}) outside layer {layer!r} grid "
                f"{la.nx}x{la.ny}"
            )
        return self._offsets[layer] + iy * la.nx + ix

    # -- assembly -------------------------------------------------------------

    def _lateral_entries(self, la: GridLayer,
                         rows: list, cols: list, vals: list) -> None:
        """Append lateral conduction entries for one layer."""
        off = self._offsets[la.name]
        k = la.k_lateral
        t = la.thickness_m
        # x-direction neighbours: G = k * (t * cell_h) / cell_w
        gx = k * t * la.cell_h / la.cell_w
        gy = k * t * la.cell_w / la.cell_h
        idx = off + np.arange(la.num_cells).reshape(la.ny, la.nx)
        for (a, b, g) in ((idx[:, :-1].ravel(), idx[:, 1:].ravel(), gx),
                          (idx[:-1, :].ravel(), idx[1:, :].ravel(), gy)):
            if a.size == 0:
                continue
            gv = np.full(a.size, g)
            rows.extend((a, b, a, b))
            cols.extend((b, a, a, b))
            vals.extend((-gv, -gv, gv, gv))

    def _vertical_entries(self, itf: Interface,
                          rows: list, cols: list, vals: list) -> None:
        """Append inter-layer conduction entries for one interface."""
        lo = self.layer_named(itf.lower)
        up = self.layer_named(itf.upper)
        r_area = (lo.half_resistance_m2kw + itf.resistance_m2kw
                  + up.half_resistance_m2kw)
        if r_area <= 0:
            raise ThermalModelError(
                f"interface {itf.lower!r}-{itf.upper!r}: non-positive "
                f"series resistance"
            )
        ox = overlap_matrix(lo.x_edges(), up.x_edges())   # (nxL, nxU)
        oy = overlap_matrix(lo.y_edges(), up.y_edges())   # (nyL, nyU)
        xi, xj = np.nonzero(ox)
        yi, yj = np.nonzero(oy)
        if xi.size == 0 or yi.size == 0:
            raise ThermalModelError(
                f"interface {itf.lower!r}-{itf.upper!r}: layers do not "
                f"overlap in plan view"
            )
        # Cartesian product of overlapping x pairs and y pairs.
        # A_ov = ox[xi,xj] * oy[yi,yj]; G = A_ov / r_area
        off_lo = self._offsets[lo.name]
        off_up = self._offsets[up.name]
        ax = ox[xi, xj]
        ay = oy[yi, yj]
        # indices: lower node = off_lo + yi*nxL + xi ; upper similar
        low_idx = (off_lo + yi[:, None] * lo.nx + xi[None, :]).ravel()
        up_idx = (off_up + yj[:, None] * up.nx + xj[None, :]).ravel()
        g = (ay[:, None] * ax[None, :]).ravel() / r_area
        rows.extend((low_idx, up_idx, low_idx, up_idx))
        cols.extend((up_idx, low_idx, low_idx, up_idx))
        vals.extend((-g, -g, g, g))

    def _boundary_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node boundary conductance and its ambient temperature."""
        g = np.zeros(self._n)
        g_t = np.zeros(self._n)
        for b in self.boundaries:
            la = self.layer_named(b.layer)
            off = self._offsets[b.layer]
            # half-layer conduction to the face in series with the surface
            r_face = la.half_resistance_m2kw / la.cell_area
            r_surf = 1.0 / (b.h_w_m2k * b.area_multiplier * la.cell_area)
            g_cell = 1.0 / (r_face + r_surf)
            sl = slice(off, off + la.num_cells)
            g[sl] += g_cell
            g_t[sl] += g_cell * b.t_ambient_c
        return g, g_t

    def _assemble(self) -> None:
        """Build G and the boundary terms (no factorization)."""
        rows: list = []
        cols: list = []
        vals: list = []
        for la in self.layers:
            self._lateral_entries(la, rows, cols, vals)
        for itf in self.interfaces:
            self._vertical_entries(itf, rows, cols, vals)
        bg, bgt = self._boundary_arrays()
        diag_idx = np.arange(self._n)
        rows.append(diag_idx)
        cols.append(diag_idx)
        vals.append(bg)
        r = np.concatenate([np.asarray(a).ravel() for a in rows])
        c = np.concatenate([np.asarray(a).ravel() for a in cols])
        v = np.concatenate([np.asarray(a).ravel() for a in vals])
        self._g = coo_matrix((v, (r, c)), shape=(self._n, self._n)).tocsc()
        self._boundary_g = bg
        self._boundary_tamb = bgt

    def _factorize(self) -> None:
        t0 = time.perf_counter()
        with span("thermal.factorize", nodes=self._n):
            self._factorize_inner()
        counter("thermal.splu_factorizations").inc()
        histogram("thermal.factorize_seconds").observe(
            time.perf_counter() - t0)

    def _factorize_inner(self) -> None:
        g = self.conductance_matrix()
        try:
            self._lu = splu(g)
        except RuntimeError as exc:
            raise SingularNetworkError(
                f"conductance matrix is singular: {exc}; check that every "
                f"layer is connected to a boundary"
            ) from exc
        # splu can "succeed" on singular systems; verify with a probe
        # solve injecting 1 W everywhere — a floating island turns that
        # into an inconsistent system, so the answer goes non-finite or
        # enormous instead of staying physical.
        probe = self._lu.solve(self._boundary_tamb + 1.0)
        if not np.all(np.isfinite(probe)) or np.abs(probe).max() > 1e12:
            raise SingularNetworkError(
                "conductance matrix is singular (a layer or island has no "
                "path to any boundary)"
            )

    # -- solving -------------------------------------------------------------

    def solve(self, power_w: dict[str, np.ndarray]) -> ThermalResult:
        """Steady-state temperatures for per-layer power injection.

        Args:
            power_w: per-layer (ny, nx) arrays of watts per cell. Layers
                omitted inject nothing. Negative power is rejected.

        Returns:
            A :class:`ThermalResult` with Celsius fields per layer.
        """
        t0 = time.perf_counter()
        with span("thermal.solve", nodes=self._n):
            if self._lu is None:
                self._factorize()
            rhs = self._rhs_vector(power_w)
            t = self._lu.solve(rhs)
        counter("thermal.solves").inc()
        histogram("thermal.solve_seconds").observe(time.perf_counter() - t0)
        fields: dict[str, np.ndarray] = {}
        for la in self.layers:
            off = self._offsets[la.name]
            fields[la.name] = t[off:off + la.num_cells].reshape(la.ny, la.nx)
        return ThermalResult(fields)

    def _rhs_vector(self, power_w: dict[str, np.ndarray]) -> np.ndarray:
        rhs = self._boundary_tamb.copy()
        for name, arr in power_w.items():
            la = self.layer_named(name)
            a = np.asarray(arr, dtype=float)
            if a.shape != (la.ny, la.nx):
                raise ThermalModelError(
                    f"power map for layer {name!r} must be "
                    f"({la.ny}, {la.nx}), got {a.shape}"
                )
            if not np.all(np.isfinite(a)):
                raise ThermalModelError(
                    f"power map for layer {name!r} contains non-finite "
                    f"cells (NaN/Inf)"
                )
            if np.any(a < 0):
                raise ThermalModelError(
                    f"power map for layer {name!r} contains negative cells"
                )
            off = self._offsets[name]
            rhs[off:off + la.num_cells] += a.ravel()
        return rhs

    def heat_balance(self, power_w: dict[str, np.ndarray],
                     result: ThermalResult) -> tuple[float, float]:
        """(injected, extracted) watts — equal at steady state.

        Extracted heat is summed over boundary conductances; the test
        suite checks conservation to machine precision.
        """
        if self._boundary_g is None:
            self._assemble()
        injected = float(sum(np.asarray(a).sum() for a in power_w.values()))
        t = np.concatenate([result.layer(la.name).ravel()
                            for la in self.layers])
        extracted = float((self._boundary_g * t - self._boundary_tamb).sum())
        return injected, extracted

    def conductance_matrix(self) -> csc_matrix:
        """The assembled G matrix; assembles but never factorizes."""
        if self._g is None:
            self._assemble()
        return self._g

    def boundary_conductances(self) -> np.ndarray:
        """Per-node boundary conductance diagonal (W/K)."""
        if self._boundary_g is None:
            self._assemble()
        return self._boundary_g.copy()

    def boundary_source(self) -> np.ndarray:
        """Per-node boundary term ``B T_amb`` of the right-hand side (W)."""
        if self._boundary_tamb is None:
            self._assemble()
        return self._boundary_tamb.copy()

    def capacitance_vector(self) -> np.ndarray:
        """Per-node heat capacities (J/K), for the transient solver."""
        caps = np.empty(self._n)
        for la in self.layers:
            off = self._offsets[la.name]
            caps[off:off + la.num_cells] = la.heat_capacity_per_cell_j_k()
        return caps
