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
  combine from every update.

Both paths are differentially tested bit-identical in their selected
allocations and energies (``tests/test_decision_kernel.py``); they differ
only in the work performed, which is exactly what ``dp_operations``
charges.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
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
        "out_addr",
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
        #: Reusable native-path output buffer (and its cached address);
        #: see :meth:`ReductionTree._update_path_native`.
        self.out_buf: Optional[np.ndarray] = None
        self.out_addr: int = 0
        #: Width the *unwindowed* combine would have — the accounting
        #: basis: ``dp_operations`` always charges nominal ``la * lb``
        #: cells, whether or not the accelerated path narrowed the
        #: columns it actually materialised.
        self.nom_size: int = 0
        #: Budget window (absolute way counts) this node's curve can ever
        #: be read at; None until acceleration derives it.
        self.win_lo: Optional[int] = None
        self.win_hi: Optional[int] = None


def combine_pair(a: EnergyCurve, b: EnergyCurve) -> tuple[EnergyCurve, np.ndarray, int]:
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
    """
    la, lb = a.energy.size, b.energy.size
    lo = a.w_min + b.w_min
    width = la + lb - 1
    buf = np.empty((la, width + 1))
    buf[:, lb:] = np.inf
    np.add(a.energy[:, None], b.energy[None, :], out=buf[:, :lb])
    sums = buf.reshape(-1)[: la * width].reshape(la, width)
    idx = sums.argmin(axis=0)
    best = sums[idx, np.arange(width)]
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
    node.curve, choice, ops = combine_pair(node.left.curve, node.right.curve)
    node.choice = choice.tolist()
    node.w_lo = node.curve.w_min
    node.nom_size = node.curve.energy.size
    return ops


def _combine_node_accel(node: _Node) -> int:
    """:func:`_combine_node` restricted to the node's budget window.

    Only the columns inside ``[win_lo, win_hi]`` are materialised —
    column minima of the (min,+) band are mutually independent, so every
    produced value (and its first-minimum choice) is bit-identical to the
    full combine's; the skipped columns are exactly those no feasible
    full-budget split can ever read (see
    :meth:`ReductionTree.set_acceleration`).  The compiled kernel walks
    each column's band once when available; the NumPy fallback slices the
    same columns out of the full banded view.  Either way the charged
    cells stay the *nominal* ``la * lb`` — the accounting the unwindowed
    PR-4 path reports (the :meth:`ReductionTree.path_operations`
    invariance pattern).
    """
    a, b = node.left.curve, node.right.curve
    nom_la = node.left.nom_size
    nom_lb = node.right.nom_size
    node.nom_size = nom_la + nom_lb - 1
    lo = a.w_min + b.w_min
    hi = a.w_max + b.w_max
    win_lo = lo if node.win_lo is None else max(lo, node.win_lo)
    win_hi = hi if node.win_hi is None else min(hi, node.win_hi)
    if win_lo > win_hi:  # pragma: no cover - guarded by budget validation
        raise ValueError("empty budget window; budget outside domain")
    la = a.energy.size
    lib = _native_opt.raw_lib()
    if lib is not None:
        # Direct FFI call: curve energies are C-contiguous float64 by
        # construction (kernel outputs, ``from_reduction`` buffers,
        # pinned/candidate arrays), so the wrapper's checks are skipped.
        n_out = win_hi - win_lo + 1
        best = np.empty(n_out)
        arg = np.empty(n_out, dtype=np.int64)
        lib.combine(
            a.energy.ctypes.data,
            la,
            b.energy.ctypes.data,
            b.energy.size,
            win_lo - lo,
            win_hi - lo,
            best.ctypes.data,
            arg.ctypes.data,
        )
    else:
        lb = b.energy.size
        width = la + lb - 1
        buf = np.empty((la, width + 1))
        buf[:, lb:] = np.inf
        np.add(a.energy[:, None], b.energy[None, :], out=buf[:, :lb])
        sums = buf.reshape(-1)[: la * width].reshape(la, width)
        seg = sums[:, win_lo - lo : win_hi - lo + 1]
        arg = seg.argmin(axis=0)
        best = seg[arg, np.arange(arg.size)]
    node.curve = EnergyCurve.from_reduction(win_lo, best)
    arg = arg + a.w_min
    node.choice = arg.tolist()
    node.w_lo = win_lo
    return nom_la * nom_lb


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

    ``order="pinned_first"`` reorders the *leaf placement* at build time
    so degenerate single-point (pinned) curves pair with each other
    before any real curve joins: their combines cost one cell each and
    stay single-point all the way up.  Extraction un-permutes, so callers
    always receive allocations in the order the curves were given.
    Pinned curves are exact identity elements of the (min,+) combine
    (they add 0.0 J and a fixed way shift), so with at most two real
    curves the reordered tree is bit-identical to the natural order;
    with three or more real curves the float *association* of their sums
    changes, which is why the resource managers keep the natural order
    (their stateless ``full_rebuild`` reference could no longer be
    matched bit for bit) and the option is exercised by warm-up-shaped
    workloads (one fresh curve, the rest pinned) where it is provably
    exact.
    """

    def __init__(
        self,
        curves: Sequence[EnergyCurve],
        order: str = "natural",
        acceleration: Optional[tuple] = None,
    ):
        if not curves:
            raise ValueError("need at least one curve")
        if order not in ("natural", "pinned_first"):
            raise ValueError(
                f"unknown leaf order {order!r}; options: natural, pinned_first"
            )
        self.order = order
        #: ``(budget, leaf_lo, leaf_hi)`` enabling the budget-windowed
        #: combine path (plus the compiled kernel when available), or
        #: None for the PR-4-era full combines.  See
        #: :meth:`set_acceleration`; results and accounting are identical
        #: either way, which is why the wave-batched simulator can flip
        #: it on freely while the scalar oracle leaves it off.
        self.acceleration = None
        if acceleration is not None:
            self._validate_acceleration(acceleration)
            self.acceleration = tuple(acceleration)
        if order == "pinned_first":
            # Stable partition: single-point curves first, everything else
            # after, both in their original relative order.
            perm = sorted(
                range(len(curves)), key=lambda i: curves[i].energy.size > 1
            )
        else:
            perm = list(range(len(curves)))
        #: tree-leaf position -> caller index (extraction un-permutes).
        self._perm = perm
        self._leaves = [_Node(curve=curves[i]) for i in perm]
        #: caller index -> tree-leaf position (update re-permutes).
        self._leaf_of = {orig: pos for pos, orig in enumerate(perm)}
        self._root = _pair_up(list(self._leaves))
        self._internal = _internal_bottom_up(self._root)
        for leaf in self._leaves:
            if self.acceleration is not None:
                leaf.curve = self._contiguous_leaf(leaf.curve)
            leaf.nom_size = leaf.curve.energy.size
        for node in self._internal:
            node.n_leaves = node.left.n_leaves + node.right.n_leaves
        if self.acceleration is not None:
            self._derive_windows()
        combine = (
            _combine_node_accel if self.acceleration is not None else _combine_node
        )
        ops = 0
        for node in self._internal:
            if node is not self._root:
                ops += combine(node)
        #: Cells touched building every non-root combine once.
        self.build_operations = ops
        self._w_min_total = sum(c.w_min for c in curves)
        self._w_max_total = sum(c.w_max for c in curves)
        #: Accelerated-path evaluation memo: (budget, total, ops, extract)
        #: valid while no update has touched the tree since it was
        #: computed — a skipped-update invocation re-reads the identical
        #: root state, so replaying the triple (including the charged
        #: window size) is exact.
        self._eval_cache = None
        #: Reusable ctypes argument buffers of the native path update.
        self._c_bufs = None
        self._c_scratch = None

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    @property
    def w_min_total(self) -> int:
        return self._w_min_total

    @property
    def w_max_total(self) -> int:
        return self._w_max_total

    def leaf_curve(self, index: int) -> EnergyCurve:
        return self._leaves[self._leaf_of[index]].curve

    @staticmethod
    def _contiguous_leaf(curve: EnergyCurve) -> EnergyCurve:
        """A C-contiguous-energy view of a leaf curve (accelerated path).

        The compiled kernels read raw ``energy`` buffers; curves the
        managers install are contiguous already (kernel outputs, pinned
        arrays) and pass through untouched — object identity preserved,
        which callers rely on — while a caller-supplied strided view is
        repacked once at install.
        """
        if curve.energy.flags.c_contiguous:
            return curve
        return EnergyCurve(curve.ways, np.ascontiguousarray(curve.energy))

    @staticmethod
    def _validate_acceleration(acceleration) -> None:
        budget, leaf_lo, leaf_hi = acceleration
        if leaf_lo < 1 or leaf_hi < leaf_lo:
            raise ValueError("leaf bounds must satisfy 1 <= leaf_lo <= leaf_hi")
        if budget < 1:
            raise ValueError("budget must be >= 1")

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

    def set_acceleration(
        self, budget: int, leaf_lo: int, leaf_hi: int
    ) -> None:
        """Enable the windowed/native combine path for one fixed budget.

        Applies to every combine from now on; curves already combined at
        full width stay valid (a wider column range is always a superset
        of the window).  Evaluation is then only legal at ``budget`` —
        other way totals could need columns the windows never
        materialise — and :meth:`evaluate` enforces that.  Values,
        choices and charged cells are bit-identical to the unaccelerated
        path (differentially tested); only wall-clock changes.
        """
        acceleration = (int(budget), int(leaf_lo), int(leaf_hi))
        self._validate_acceleration(acceleration)
        self.acceleration = acceleration
        self._eval_cache = None
        for leaf in self._leaves:
            leaf.curve = self._contiguous_leaf(leaf.curve)
        self._derive_windows()

    def update(self, index: int, curve: EnergyCurve) -> int:
        """Replace one leaf's curve; recombine its path; return ops."""
        leaf = self._leaves[self._leaf_of[index]]
        old = leaf.curve
        if self.acceleration is not None:
            curve = self._contiguous_leaf(curve)
        leaf.curve = curve
        leaf.nom_size = curve.energy.size
        self._w_min_total += curve.w_min - old.w_min
        self._w_max_total += curve.w_max - old.w_max
        self._eval_cache = None
        if self.acceleration is not None:
            lib = _native_opt.raw_lib()
            if lib is not None:
                return self._update_path_native(lib, leaf)
            combine = _combine_node_accel
        else:
            combine = _combine_node
        ops = 0
        node = leaf.parent
        while node is not None and node is not self._root:
            ops += combine(node)
            node = node.parent
        return ops

    def _update_path_native(self, lib, leaf: _Node) -> int:
        """One FFI call recombines the whole leaf-to-root path.

        Stages each level's sibling pointer, window and output buffers
        into reusable ctypes arrays, then lets the compiled
        ``path_update`` chain the windowed combines (level ``l``'s output
        is level ``l+1``'s path-side operand).  Cell arithmetic,
        tie-breaks and the charged nominal bill are exactly the
        per-node path's (differentially tested); only FFI and Python
        per-combine overhead disappears.
        """
        bufs = self._c_bufs
        if bufs is None:
            depth = 48  # >= ceil(log2(n_leaves)) for any conceivable tree
            bufs = self._c_bufs = (
                (ctypes.c_void_p * depth)(),  # sibling energies
                (ctypes.c_int64 * depth)(),  # sibling widths
                (ctypes.c_int64 * depth)(),  # sibling-is-left flags
                (ctypes.c_int64 * depth)(),  # first output column
                (ctypes.c_int64 * depth)(),  # last output column
                (ctypes.c_void_p * depth)(),  # output energies
            )
        sibs, sib_ns, sib_left, w0s, w1s, bests = bufs
        child = leaf
        lc = leaf.curve
        cur_lo = lc.w_min
        cur_n = lc.energy.size
        cur_nom = leaf.nom_size
        node = leaf.parent
        root = self._root
        ops = 0
        outs = []
        n_levels = 0
        while node is not None and node is not root:
            path_is_left = node.left is child
            sib = node.right if path_is_left else node.left
            sc = sib.curve
            nat_lo = cur_lo + sc.w_min
            nat_hi = cur_lo + cur_n - 1 + sc.w_max
            win_lo = max(nat_lo, node.win_lo)
            win_hi = min(nat_hi, node.win_hi)
            if win_lo > win_hi:  # pragma: no cover - budget validated
                raise ValueError("empty budget window; budget outside domain")
            n_out = win_hi - win_lo + 1
            # Steady-state updates reuse the node's output buffer (and
            # its cached address) — the kernel overwrites it in place,
            # and the node's curve object survives when its window is
            # unchanged.  Safe because internal curves are never
            # retained across updates (leaf curves are the only
            # identity-checked objects) and distinct nodes never share
            # a buffer.
            best = node.out_buf
            if best is None or best.size != n_out:
                best = node.out_buf = np.empty(n_out)
                node.out_addr = best.ctypes.data
            addr = getattr(sc, "_caddr", None)
            if addr is None:
                addr = sc.energy.ctypes.data
                object.__setattr__(sc, "_caddr", addr)
            sibs[n_levels] = addr
            sib_ns[n_levels] = sc.energy.size
            sib_left[n_levels] = 0 if path_is_left else 1
            w0s[n_levels] = win_lo - nat_lo
            w1s[n_levels] = win_hi - nat_lo
            bests[n_levels] = node.out_addr
            ops += cur_nom * sib.nom_size
            cur_nom = cur_nom + sib.nom_size - 1
            outs.append((node, win_lo, best, cur_nom))
            cur_lo, cur_n = win_lo, n_out
            child = node
            node = node.parent
            n_levels += 1
        if n_levels == 0:
            return 0
        scratch = self._c_scratch
        if scratch is None or scratch.size <= self._w_max_total:
            # Reversal scratch for the kernel: any operand's width is
            # bounded by the widest possible combined domain.
            scratch = self._c_scratch = np.empty(self._w_max_total + 1)
        addr = getattr(lc, "_caddr", None)
        if addr is None:
            addr = lc.energy.ctypes.data
            object.__setattr__(lc, "_caddr", addr)
        lib.path_update(
            n_levels,
            addr,
            lc.energy.size,
            sibs,
            sib_ns,
            sib_left,
            w0s,
            w1s,
            bests,
            scratch.ctypes.data,
        )
        for node, win_lo, best, nom in outs:
            cur = node.curve
            if cur is None or cur.energy is not best or cur.w_min != win_lo:
                node.curve = EnergyCurve.from_reduction(win_lo, best)
            node.choice = None  # back-tracks recover columns on demand
            node.w_lo = win_lo
            node.nom_size = nom
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
        between the skipped and the recomputed path.
        """
        ops = 0
        node = self._leaves[self._leaf_of[index]].parent
        while node is not None and node is not self._root:
            ops += node.left.nom_size * node.right.nom_size
            node = node.parent
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

        def extract() -> List[int]:
            out: List[int] = []
            _backtrack(root.left, wa, out)
            _backtrack(root.right, total_ways - wa, out)
            if self.order == "natural":
                return out
            unpermuted = [0] * len(out)
            for pos, orig in enumerate(self._perm):
                unpermuted[orig] = out[pos]
            return unpermuted

        result = (float(total), int(sums.size), extract)
        if self.acceleration is not None:
            # Memoize only on the accelerated path — the PR-4 cost
            # profile (one window evaluation per invocation) stays
            # measurable on the plain tree.
            self._eval_cache = (total_ways, *result)
        return result

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
