"""Global optimisation: the pairwise energy-curve reduction kernel.

Given one energy curve per core, the optimiser finds the allocation
``{w_j}`` minimising total predicted energy subject to ``sum w_j = A`` and
the per-core domain bounds — Section III-A's reduction: curves are combined
pairwise,

    E_ab(W) = min over w_a + w_b = W of  E_a(w_a) + E_b(w_b),

up a binary tree, the root is evaluated at the way budget, and choices are
back-tracked down.  Complexity is polynomial in the core count
(O(n * A^2) combine work), the property the paper highlights over a naive
exponential joint search.

Two entry points share the same combine kernel:

* :func:`partition_ways` — the stateless reference: rebuilds the whole
  tree for one budget query.  This is what the prior-work framework pays
  on *every* RM invocation, and it is preserved verbatim as the
  ``full_rebuild`` accounting mode of the managers.
* :class:`ReductionTree` — the persistent kernel: the tree survives
  across invocations, and when one core's curve changes only the
  O(log n) combines on the leaf-to-root path re-run.  The root curve is
  never materialised at all — the budget is fixed, so the root is
  evaluated at the single way count ``A`` with a windowed min instead of
  a full (min,+) convolution, which removes the single most expensive
  combine from every update.  The simulator wave loop's accelerated
  tree also restricts every combine to the columns the budget can read,
  and with a C compiler an update is one compiled call
  (``tree_update`` in :mod:`repro.core._native_opt`): the leaf's whole
  path is recombined and the root split evaluated from a node table and
  a per-leaf plan staged once per tree.  Without a compiler the same
  windowed combines and root window run in NumPy.

Both paths are differentially tested bit-identical in their selected
allocations and energies (``tests/test_decision_kernel.py``); they differ
only in the work performed, which is exactly what ``dp_operations``
charges.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro.core import _native_opt
from repro.core.energy_curve import EnergyCurve

__all__ = [
    "GlobalOptResult",
    "ReductionTree",
    "combine_pair",
    "combine_pair_reference",
    "partition_ways",
]


@dataclass(frozen=True)
class GlobalOptResult:
    """Optimal partition plus bookkeeping for overhead accounting."""

    ways: List[int]
    total_energy: float
    dp_operations: int


class _Node:
    """Reduction-tree node: a combined curve plus back-tracking tables."""

    __slots__ = (
        "curve",
        "left",
        "right",
        "choice",
        "w_lo",
        "parent",
        "n_leaves",
        "nom_size",
        "win_lo",
        "win_hi",
        "out_buf",
        "idx",
    )

    def __init__(self, curve=None, left=None, right=None, choice=None):
        self.curve: Optional[EnergyCurve] = curve
        self.left: Optional[_Node] = left
        self.right: Optional[_Node] = right
        #: list[int]: ways given to the left child per combined W (a plain
        #: list so the back-tracking walk stays free of NumPy indexing).
        self.choice = choice
        self.w_lo: int = 0  # combined-domain lower bound (= curve.w_min)
        self.parent: Optional[_Node] = None
        #: Leaves under this node (window derivation).
        self.n_leaves: int = 1
        #: Compiled path only: the fixed buffer the kernel writes this
        #: node's windowed values into, and the node's row in the
        #: kernel's node table (see :meth:`ReductionTree._stage_native`).
        self.out_buf: Optional[np.ndarray] = None
        self.idx: int = 0
        #: Width the *unwindowed* combine would have — the accounting
        #: basis: ``dp_operations`` always charges nominal ``la * lb``
        #: cells, whether or not the accelerated path narrowed the
        #: columns it actually materialised.  A leaf's is its curve's.
        self.nom_size: int = 0 if curve is None else curve.energy.size
        #: Budget window (absolute way counts) this node's curve can ever
        #: be read at; None until acceleration derives it.
        self.win_lo: Optional[int] = None
        self.win_hi: Optional[int] = None


def combine_pair(
    a: EnergyCurve, b: EnergyCurve, window: Optional[tuple] = None
) -> tuple[EnergyCurve, np.ndarray, int]:
    """Reduce two curves; returns (combined, left-choice table, op count).

    ``choice[i]`` is the left-child allocation for combined way count
    ``combined.ways[i]``; ties break toward the smallest left allocation
    and all-infeasible way counts keep ``a.w_min`` (both matching the
    scalar reference, so back-tracked settings are bit-identical).

    One (min,+) convolution as a single 2-D broadcast: every pairwise sum
    lands on a banded (la, la+lb-1) matrix whose column minima are the
    combined curve.  The band is materialised by the skew trick — the
    (la, lb) outer-sum rows are laid out with a one-column gap, so
    re-viewing the buffer with row stride ``width`` shifts row ``ia``
    right by ``ia`` columns and the off-band positions land on the
    ``inf`` padding — which avoids a scattered fancy-index assignment.

    ``window=(lo, hi)`` keeps only the combined way counts in
    ``[lo, hi]``: column minima are mutually independent, so every kept
    value and choice is bit-identical to the full combine's.
    """
    la, lb = a.energy.size, b.energy.size
    lo = a.w_min + b.w_min
    width = la + lb - 1
    buf = np.empty((la, width + 1))
    buf[:, lb:] = np.inf
    np.add(a.energy[:, None], b.energy[None, :], out=buf[:, :lb])
    sums = buf.reshape(-1)[: la * width].reshape(la, width)
    if window is not None:
        win_lo = max(lo, window[0])
        win_hi = min(a.w_max + b.w_max, window[1])
        if win_lo > win_hi:  # pragma: no cover - guarded by budget validation
            raise ValueError("empty budget window; budget outside domain")
        sums = sums[:, win_lo - lo : win_hi - lo + 1]
        lo = win_lo
    idx = sums.argmin(axis=0)
    best = sums[idx, np.arange(idx.size)]
    return EnergyCurve.from_reduction(lo, best), a.w_min + idx, la * lb


def combine_pair_reference(
    a: EnergyCurve, b: EnergyCurve
) -> tuple[EnergyCurve, np.ndarray, int]:
    """Scalar-loop reference combine (the pre-vectorisation implementation).

    Kept as the differential-testing oracle for :func:`combine_pair`, the
    same pattern as the replay engine's ``LRUStack`` oracle.
    """
    la, lb = a.energy.size, b.energy.size
    lo = a.w_min + b.w_min
    hi = a.w_max + b.w_max
    width = hi - lo + 1
    best = np.full(width, np.inf)
    choice = np.full(width, a.w_min, dtype=int)
    for ia in range(la):
        wa = a.w_min + ia
        ea = a.energy[ia]
        if not np.isfinite(ea):
            continue
        sums = ea + b.energy
        start = (wa + b.w_min) - lo
        seg = slice(start, start + lb)
        better = sums < best[seg]
        if np.any(better):
            best_seg = best[seg]
            choice_seg = choice[seg]
            best_seg[better] = sums[better]
            choice_seg[better] = wa
            best[seg] = best_seg
            choice[seg] = choice_seg
    combined = EnergyCurve(np.arange(lo, hi + 1), best)
    return combined, choice, la * lb


def _pair_up(nodes: List[_Node]) -> _Node:
    """Build the tree structure (no curves combined yet).

    Adjacent nodes pair level by level; an odd node is carried up intact —
    the exact shape of the original recursive reduction, so combined
    curves and choice tables are identical node for node.
    """
    while len(nodes) > 1:
        next_level: List[_Node] = []
        for i in range(0, len(nodes) - 1, 2):
            parent = _Node(left=nodes[i], right=nodes[i + 1])
            nodes[i].parent = parent
            nodes[i + 1].parent = parent
            next_level.append(parent)
        if len(nodes) % 2:
            next_level.append(nodes[-1])
        nodes = next_level
    return nodes[0]


def _combine_node(node: _Node) -> int:
    """Combine a node's children; return the *nominal* cells charged.

    A node with a budget window (the accelerated tree without a compiler)
    materialises only the columns inside it; the skipped columns are
    those no feasible full-budget split can ever read (see
    :meth:`ReductionTree._derive_windows`), and the compiled kernel's
    ``tree_update`` computes the same values.  Either way the charge is
    the nominal ``la * lb`` of the children's unwindowed widths, the bill
    the plain tree reports (the :meth:`ReductionTree.path_operations`
    invariance pattern).
    """
    left, right = node.left, node.right
    window = None if node.win_lo is None else (node.win_lo, node.win_hi)
    node.curve, choice, _ = combine_pair(left.curve, right.curve, window)
    node.choice = choice.tolist()
    node.w_lo = node.curve.w_min
    node.nom_size = left.nom_size + right.nom_size - 1
    return left.nom_size * right.nom_size


def _energy_addr(curve: EnergyCurve) -> int:
    """Address of a (C-contiguous) curve's energy buffer, cached on it.

    Leaf curves recur — memoized local results hand the same curve
    object back — so the lookup is paid once per curve, not per update.
    """
    addr = curve.__dict__.get("_caddr")
    if addr is None:
        addr = curve.energy.ctypes.data
        object.__setattr__(curve, "_caddr", addr)
    return addr


def _internal_bottom_up(root: _Node) -> List[_Node]:
    """Internal nodes ordered children-before-parents (post-order)."""
    out: List[_Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.left is not None:
            out.append(node)
            stack.append(node.left)
            stack.append(node.right)
    out.reverse()
    return out


def _column_choice(node: _Node, w: int) -> int:
    """First-minimum left allocation of one combined column, on demand.

    The accelerated path never materialises choice tables (the hot loop
    only needs combined *values*); a back-track query recomputes the one
    column it visits from the node's child curves — which are always the
    exact operands the node's values were combined from (path updates
    recombine every ancestor of a changed leaf).  Same candidate sums,
    same first-minimum tie-break as the eager table; visited columns are
    always part of a feasible (finite) split, where the two agree
    unconditionally.
    """
    a, b = node.left.curve, node.right.curve
    lo = max(a.w_min, w - b.w_max)
    hi = min(a.w_max, w - b.w_min)
    seg_a = a.energy[lo - a.w_min : hi - a.w_min + 1]
    seg_b = b.energy[w - hi - b.w_min : w - lo - b.w_min + 1][::-1]
    sums = seg_a + seg_b
    return lo + int(sums.argmin())


def _backtrack(node: _Node, w: int, out: List[int]) -> None:
    """Walk choice tables down a (sub)tree, appending leaf allocations.

    Iterative pre-order (left subtree fully before right), so the output
    order matches the leaf order.  Nodes combined by the accelerated
    values-only path hold no table (``choice`` is None) and answer
    through :func:`_column_choice`.
    """
    stack = [(node, int(w))]
    while stack:
        node, w = stack.pop()
        if node.left is None:
            out.append(w)
            continue
        if node.choice is None:
            wa = _column_choice(node, w)
        else:
            wa = node.choice[w - node.w_lo]
        stack.append((node.right, w - wa))
        stack.append((node.left, wa))


class ReductionTree:
    """Persistent reduction tree over one curve per core.

    The tree is built once and owned across RM invocations; replacing one
    leaf's curve (:meth:`update`) re-runs only the combines on that leaf's
    path to the root.  The root itself is special: its full combined curve
    is never needed (it is nobody's combine input and the budget is a
    single way count), so :meth:`solve` evaluates the root split with a
    windowed min over the two child curves — the same candidate sums, the
    same first-minimum tie-break, hence bit-identical allocations to the
    full rebuild at a fraction of the work.

    Operation accounting: the constructor charges the initial build to
    :attr:`build_operations`; :meth:`update` and :meth:`solve` return the
    cells they actually touched.  Summed per invocation this is the
    ``dp_operations`` of the incremental accounting mode.  When a caller
    knows a leaf's curve is unchanged it may skip the recombine entirely
    and charge :meth:`path_operations` instead — the exact cell count
    :meth:`update` would have reported.

    ``acceleration=(budget, leaf_lo, leaf_hi)`` enables the wave loop's
    fast path: every combine materialises only its budget window (see
    :meth:`_derive_windows`), and with a C compiler one ``tree_update``
    call per :meth:`update` recombines the leaf's whole path and
    evaluates the root split, which :meth:`evaluate` then replays.  The
    tree then accepts only leaf curves inside ``[leaf_lo, leaf_hi]`` and
    evaluates only at ``budget``.  Values, choices and charged cells are
    bit-identical to the plain tree (differentially tested), which is
    why the simulator's wave loop enables it while the scalar oracle
    leaves it off.
    """

    def __init__(
        self,
        curves: Sequence[EnergyCurve],
        acceleration: Optional[tuple] = None,
    ):
        if not curves:
            raise ValueError("need at least one curve")
        #: ``(budget, leaf_lo, leaf_hi)`` of the accelerated path, or None
        #: for the plain tree's full combines.
        self.acceleration = None
        if acceleration is not None:
            budget, leaf_lo, leaf_hi = (int(v) for v in acceleration)
            if leaf_lo < 1 or leaf_hi < leaf_lo:
                raise ValueError(
                    "leaf bounds must satisfy 1 <= leaf_lo <= leaf_hi"
                )
            if budget < 1:
                raise ValueError("budget must be >= 1")
            self.acceleration = (budget, leaf_lo, leaf_hi)
        if self.acceleration is not None:
            curves = [self._accelerated_leaf(curve) for curve in curves]
        self._leaves = [_Node(curve=curve) for curve in curves]
        self._root = _pair_up(list(self._leaves))
        self._internal = _internal_bottom_up(self._root)
        for node in self._internal:
            node.n_leaves = node.left.n_leaves + node.right.n_leaves
        self._w_min_total = sum(c.w_min for c in curves)
        self._w_max_total = sum(c.w_max for c in curves)
        #: Accelerated-path evaluation memo: (budget, total, ops, extract)
        #: valid while no update has touched the tree since it was
        #: computed — a skipped-update invocation re-reads the identical
        #: root state, so replaying the triple (including the charged
        #: window size) is exact.  The compiled path fills it on every
        #: recombine.
        self._eval_cache = None
        #: Leaf position -> cells of its path's combines (nominal widths
        #: change only when some leaf's width does; then it is cleared).
        self._path_ops: dict = {}
        #: The compiled kernels (accelerated trees with a root split only).
        self._lib = None
        if self.acceleration is not None:
            self._derive_windows()
            if self._root.left is not None:
                self._lib = _native_opt.raw_lib()
        if self._lib is not None:
            ops = self._stage_native()
        else:
            ops = 0
            for node in self._internal:
                if node is not self._root:
                    ops += _combine_node(node)
        #: Cells touched building every non-root combine once.
        self.build_operations = ops

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    @property
    def w_min_total(self) -> int:
        return self._w_min_total

    @property
    def w_max_total(self) -> int:
        return self._w_max_total

    def _accelerated_leaf(self, curve: EnergyCurve) -> EnergyCurve:
        """Validate and, if needed, repack a leaf curve for the fast path.

        The budget windows — and the compiled kernel's fixed node
        buffers — are sized from the leaf bounds, so a curve outside them
        is rejected.  The kernels read raw ``energy`` buffers; curves the
        managers install are contiguous already (kernel outputs, pinned
        arrays) and pass through untouched — object identity preserved,
        which callers rely on — while a caller-supplied strided view is
        repacked once at install.
        """
        _, leaf_lo, leaf_hi = self.acceleration
        if curve.w_min < leaf_lo or curve.w_max > leaf_hi:
            raise ValueError(
                f"leaf curve ways [{curve.w_min}, {curve.w_max}] outside the "
                f"accelerated tree's bounds [{leaf_lo}, {leaf_hi}]"
            )
        if curve.energy.flags.c_contiguous:
            return curve
        return EnergyCurve(curve.ways, np.ascontiguousarray(curve.energy))

    def _derive_windows(self) -> None:
        """Fixed per-node budget windows from universal leaf bounds.

        Every leaf curve the managers ever install spans a subset of
        ``[leaf_lo, leaf_hi]`` ways (candidate range plus the pinned
        baseline point).  A node covering ``k`` of the ``n`` leaves can
        therefore only be read — by the root evaluation or any
        back-track — at way counts ``w`` with
        ``budget - leaf_hi*(n-k) <= w <= budget - leaf_lo*(n-k)``: the
        other ``n-k`` leaves must absorb exactly ``budget - w``.  The
        bounds depend on nothing that changes during a run, so windows
        are derived once and are never stale.
        """
        budget, leaf_lo, leaf_hi = self.acceleration
        n = len(self._leaves)
        for node in self._internal:
            rest = n - node.n_leaves
            node.win_lo = budget - leaf_hi * rest
            node.win_hi = budget - leaf_lo * rest

    def _stage_native(self) -> int:
        """Stage the compiled kernel's state and build the tree with it.

        Everything static is laid out once per tree: the node table (one
        row per node; leaves point at their curves, each internal node at
        a fixed buffer sized for its window — at most ``k * (leaf_hi -
        leaf_lo) + 1`` wide for ``k`` leaves), and one plan per leaf
        listing its path's (node, children, window) steps and the root
        split, plus the kernel's scratch: the widest operand and its +inf
        pads (:data:`~repro.core._native_opt.SCRATCH_PAD`).  An update
        then writes the leaf's row and makes one call.  Returns the
        build's nominal cells.
        """
        budget, leaf_lo, leaf_hi = self.acceleration
        spread = leaf_hi - leaf_lo
        root = self._root
        combined = [node for node in self._internal if node is not root]
        nodes = self._leaves + self._internal
        for idx, node in enumerate(nodes):
            node.idx = idx
        fields = _native_opt.NODE_FIELDS
        self._tab = (ctypes.c_int64 * (fields * len(nodes)))()
        for pos, leaf in enumerate(self._leaves):
            self._install_native(pos, leaf.curve)
        widest = spread + 1
        ops = 0
        for node in combined:
            ops += node.left.nom_size * node.right.nom_size
            node.nom_size = node.left.nom_size + node.right.nom_size - 1
            cap = min(node.win_hi - node.win_lo, node.n_leaves * spread) + 1
            node.out_buf = np.empty(cap)
            self._tab[fields * node.idx] = node.out_buf.ctypes.data
            widest = max(widest, cap)
        self._scratch = np.empty(widest + _native_opt.SCRATCH_PAD)
        self._total = (ctypes.c_double * 1)()
        self._split = (ctypes.c_int64 * 2)()
        self._args = (
            ctypes.addressof(self._tab),
            self._scratch.ctypes.data,
            ctypes.addressof(self._total),
            ctypes.addressof(self._split),
        )
        tail = (root.left.idx, root.right.idx, budget)

        def plan(steps: List[_Node]):
            flat = [len(steps)]
            for node in steps:
                flat += (node.idx, node.left.idx, node.right.idx,
                         node.win_lo, node.win_hi)
            flat += tail
            return (ctypes.c_int64 * len(flat))(*flat)

        #: Per leaf position: its path's internal nodes (root excluded)
        #: and the kernel plan recombining them.
        self._paths: List[List[_Node]] = []
        self._plans = []
        for leaf in self._leaves:
            path = []
            node = leaf.parent
            while node is not root:
                path.append(node)
                node = node.parent
            self._paths.append(path)
            self._plans.append(plan(path))
        self._plan_addrs = [ctypes.addressof(p) for p in self._plans]
        build = plan(combined)
        self._run_native(ctypes.addressof(build), combined)
        return ops

    def _install_native(self, pos: int, curve: EnergyCurve) -> None:
        """Point a leaf's node-table row at its (new) curve."""
        row = _native_opt.NODE_FIELDS * pos
        tab = self._tab
        tab[row] = _energy_addr(curve)
        tab[row + 1] = curve.w_min
        tab[row + 2] = curve.energy.size

    def _run_native(self, plan_addr: int, nodes: List[_Node]) -> None:
        """One ``tree_update`` call: recombine a plan, evaluate the root.

        Internal curves are views of the nodes' fixed buffers, rewritten
        in place; a node's view is rebuilt only when the kernel moved its
        low end or width (safe because internal curves are never
        retained across updates — leaf curves are the only
        identity-checked objects).  The root split lands in the
        evaluation memo when it is feasible; otherwise :meth:`evaluate`
        re-derives it and raises.
        """
        changed = self._lib.tree_update(plan_addr, *self._args)
        if changed:
            if changed < 0:
                raise ValueError("empty budget window; budget outside domain")
            tab = self._tab
            for node in nodes:
                row = _native_opt.NODE_FIELDS * node.idx
                lo, width = tab[row + 1], tab[row + 2]
                cur = node.curve
                if cur is None or cur.w_min != lo or cur.energy.size != width:
                    node.curve = EnergyCurve.from_reduction(
                        lo, node.out_buf[:width]
                    )
        split = self._split
        total = self._total[0]
        if split[1] and math.isfinite(total):
            budget = self.acceleration[0]
            self._eval_cache = (
                budget,
                total,
                split[1],
                partial(self._extract, split[0], budget),
            )

    def update(self, index: int, curve: EnergyCurve) -> int:
        """Replace one leaf's curve; recombine its path; return ops."""
        leaf = self._leaves[index]
        old = leaf.curve
        if self.acceleration is not None:
            curve = self._accelerated_leaf(curve)
        leaf.curve = curve
        self._w_min_total += curve.w_min - old.w_min
        self._w_max_total += curve.w_max - old.w_max
        self._eval_cache = None
        if curve.energy.size != leaf.nom_size:
            leaf.nom_size = curve.energy.size
            node = leaf.parent
            while node is not None:
                node.nom_size = node.left.nom_size + node.right.nom_size - 1
                node = node.parent
            self._path_ops.clear()
        ops = self.path_operations(index)
        if self._lib is not None:
            self._install_native(index, curve)
            self._run_native(self._plan_addrs[index], self._paths[index])
            return ops
        node = leaf.parent
        while node is not None and node is not self._root:
            _combine_node(node)
            node = node.parent
        return ops

    def path_operations(self, index: int) -> int:
        """Cells :meth:`update` would charge for ``index`` — without work.

        The combine cost of a node is the product of its children's
        current *nominal* curve widths (the accelerated path materialises
        fewer columns but charges the same bill), so the whole
        leaf-to-root cost is known without recombining anything.  Callers
        that can prove a leaf's curve is unchanged (e.g. a memoized local
        result feeding the same curve object back) charge this instead of
        re-running :meth:`update`, keeping ``dp_operations`` identical
        between the skipped and the recomputed path.  Memoized per leaf
        until some leaf's width changes.
        """
        ops = self._path_ops.get(index)
        if ops is None:
            ops = 0
            node = self._leaves[index].parent
            while node is not None and node is not self._root:
                ops += node.left.nom_size * node.right.nom_size
                node = node.parent
            self._path_ops[index] = ops
        return ops

    def evaluate(self, total_ways: int):
        """Root evaluation with deferred way extraction.

        Returns ``(total_energy, dp_operations, extract)`` where
        ``extract()`` walks the choice tables and returns the per-leaf
        allocation.  The split is deliberate: under re-partition
        hysteresis the caller often keeps the current allocation, in
        which case the walk never happens (it was computed and discarded
        before).  ``dp_operations`` covers only this evaluation (the root
        window); the caller adds the build/update combine work it
        already charged.
        """
        if not self.w_min_total <= total_ways <= self.w_max_total:
            raise ValueError(
                f"budget {total_ways} outside combined domain "
                f"[{self.w_min_total}, {self.w_max_total}]"
            )
        if self.acceleration is not None and total_ways != self.acceleration[0]:
            raise ValueError(
                f"accelerated tree is windowed for budget "
                f"{self.acceleration[0]}; cannot evaluate {total_ways}"
            )
        cache = self._eval_cache
        if cache is not None and cache[0] == total_ways:
            return cache[1], cache[2], cache[3]
        root = self._root
        if root.left is None:
            total = root.curve.energy_at(total_ways)
            if not np.isfinite(total):
                raise ValueError("no feasible partition for the given curves")
            return float(total), 0, lambda: [int(total_ways)]
        left, right = root.left.curve, root.right.curve
        lo = max(left.w_min, total_ways - right.w_max)
        hi = min(left.w_max, total_ways - right.w_min)
        # Candidate left allocations ascending; the right slice is the
        # matching descending window.  Same sums, same first-min
        # tie-break as the full root combine's column ``total_ways``.
        left_seg = left.energy[lo - left.w_min : hi - left.w_min + 1]
        right_seg = right.energy[
            total_ways - hi - right.w_min : total_ways - lo - right.w_min + 1
        ][::-1]
        sums = left_seg + right_seg
        wa = lo + int(sums.argmin())
        total = sums[wa - lo]
        if not np.isfinite(total):
            raise ValueError("no feasible partition for the given curves")
        result = (float(total), int(sums.size), partial(self._extract, wa, total_ways))
        if self.acceleration is not None:
            # Memoize only on the accelerated path — the PR-4 cost
            # profile (one window evaluation per invocation) stays
            # measurable on the plain tree.
            self._eval_cache = (total_ways, *result)
        return result

    def _extract(self, wa: int, total_ways: int) -> List[int]:
        """Per-leaf allocation of the root split ``(wa, total_ways - wa)``."""
        root = self._root
        out: List[int] = []
        _backtrack(root.left, wa, out)
        _backtrack(root.right, total_ways - wa, out)
        return out

    def solve(self, total_ways: int) -> GlobalOptResult:
        """Optimal partition for the budget from the current curves."""
        total, ops, extract = self.evaluate(total_ways)
        return GlobalOptResult(ways=extract(), total_energy=total, dp_operations=ops)


def partition_ways(
    curves: Sequence[EnergyCurve], total_ways: int
) -> GlobalOptResult:
    """Optimal way partition across cores for a fixed budget.

    The stateless full rebuild: every combine (including the root's full
    convolution) runs and is charged to ``dp_operations`` — the
    per-invocation cost profile of the prior-work framework and of this
    repo before the persistent kernel.

    Raises
    ------
    ValueError
        If the budget is outside the combined domain or no feasible
        partition exists (every curve must have at least one finite point;
        in the RM the baseline allocation is always feasible, so this only
        fires on malformed inputs).
    """
    if not curves:
        raise ValueError("need at least one curve")
    lo = sum(c.w_min for c in curves)
    hi = sum(c.w_max for c in curves)
    if not lo <= total_ways <= hi:
        raise ValueError(
            f"budget {total_ways} outside combined domain [{lo}, {hi}]"
        )
    leaves = [_Node(curve=c) for c in curves]
    root = _pair_up(list(leaves))
    ops = 0
    for node in _internal_bottom_up(root):
        ops += _combine_node(node)
    total = root.curve.energy_at(total_ways)
    if not np.isfinite(total):
        raise ValueError("no feasible partition for the given curves")
    out: List[int] = []
    _backtrack(root, total_ways, out)
    return GlobalOptResult(ways=out, total_energy=float(total), dp_operations=ops)
