"""A two-agent OXS search state's exact value, as one min-cost flow.

`DeadlineFlow` runs on the adjacency an `OXS` oracle builds once (see
`matching`): the best matching over the bundle and the goods a deviator can
still gain.  It has a module of its own, imported by `OXS.deadline_flow`
when a search first needs it, so loading a document compiles none of it.
"""

from __future__ import annotations

from typing import Sequence

from .matching import Adjacency


class DeadlineFlow:
    """Exact two-agent search state values of an OXS oracle, one min-cost flow each.

    The static graph, built once per search, is `adjacency` and σ, the
    other agent's `order` of all goods.  `value(avail, bundle, turns, limit)`
    is the state's exact value: the largest matching value of B ∪ S, for
    the bundle B and every S of the available goods A that meets the
    deadline caps |S ∩ P_j| <= ⌈j/2⌉, P_j the first j goods of `avail` in
    σ, and |S| <= `turns` (see `equilibria.best_response` for why these
    are the sets she can gain).  `work` counts the flows' steps over every
    call, one per good whose edges a flow relaxes, as they run; a call whose
    count passes `limit` stops there and returns None.

    The network: a source feeds a chain c_M -> ... -> c_1 over the
    available goods in σ order.  The edge into c_M has capacity
    min(turns, ⌈M/2⌉), the edge c_{j+1} -> c_j capacity ⌈j/2⌉, and each
    available good hangs off its chain node by a capacity-1 edge.  Each
    good of B has its own capacity-1 source edge, with no deadline.  Good
    -> slot edges cost minus their weight, and each slot reaches the sink
    by a capacity-1 edge.

    The caps are exactly the lemma's.  Every good takes at most one unit,
    and every slot passes at most one to the sink, so an integral flow is a
    matching of some goods of B ∪ A, and its cost is minus its weight.  By
    conservation the edge into c_j carries one unit per matched good of
    P_j ∩ A, so the goods S of A that the flow matches meet every cap;
    conversely a matching whose goods S of A meet the caps routes each good
    of S down the chain to its node, loading the edge into c_j with
    |S ∩ P_j|.  So the
    least flow cost is minus the largest matching value over B ∪ S with S
    feasible, which by monotonicity is the state's value.  A prefix whose
    last good hangs nothing adds no cap beyond the next chain node below
    that does, since ⌈j/2⌉ grows with j: the chain keeps only the nodes of
    goods with edges, each with its own prefix cap, and the top one capped
    by `turns` as well.

    Successive shortest paths: from the empty flow, augment one unit along
    a cheapest source-sink path in the residual graph (the label-correcting
    relaxation of `matching.max_weight_matching_value`, maximizing the
    gain, minus the cost), and stop at the first path that does not gain.  Stopping
    there is exact.  Let c(f) be the least cost of a flow of value f.
    (1) Augmenting a least-cost flow of value f along a cheapest path P
    gives one of value f + 1.  A flow is least-cost for its value exactly
    when its residual graph has no negative cycle, since two flows of one
    value differ by residual cycles.  With the cheapest-path costs d as
    potentials, every residual edge among nodes the source reaches has
    reduced cost c(u, v) + d(u) - d(v) >= 0, and P's edges 0, so their
    reverses, the only new edges, cost 0 too; no residual edge leads from
    a reached node to an unreached one, so a cycle lies wholly on one side,
    and has a non-negative reduced, hence real, cost.  So c(f + 1) = c(f)
    plus P's cost.  (2) c is convex: half of least-cost flows of values
    f - 1 and f + 1 is a fractional flow of value f, and with integral
    capacities some least-cost flow of value f is integral (network
    matrices are totally unimodular), so 2c(f) <= c(f - 1) + c(f + 1).
    So the path costs never decrease, and c is least at the first f whose
    next path costs 0 or more, or that has no next path.  The empty flow's
    residual graph is acyclic, which starts (1).

    The nodes share one index space.  Chain node c_{i+1} is node i, for i
    below `top`, the number of chain nodes.  Good k is node `top` + k: the
    chain's goods come first, in σ order, so chain good k hangs off chain
    node k, and the bundle's follow.  Slot r comes after the goods, and the
    source is -1.  One `label` array holds every node's best gain from the
    source, and one `came` array its predecessor on that path; the flow is
    `owner` and `held` per slot, `at` (its slot) per good and `load` (the
    flow into it) per chain node.  Each round is one FIFO label-correcting
    loop over the node ids, then a walk back from the best free slot that
    applies each path edge by the kinds of its two ends.
    """

    def __init__(self, num_right: int, adjacency: Adjacency, order: Sequence[int]) -> None:
        self.num_right = num_right
        self.order = [(1 << g, adjacency[g]) for g in order]
        self.work = 0

    def value(self, avail: int, bundle: int, turns: int, limit: int) -> int | None:
        num_right = self.num_right
        chain: list[Sequence[tuple[int, int]]] = []  # available goods' edges, in σ order: c_1 first
        caps: list[int] = []  # the capacity of the edge into each chain node
        sources: list[Sequence[tuple[int, int]]] = []  # the bundle's goods' edges
        rank = 0
        for bit, row in self.order:
            if avail & bit:
                rank += 1
                if row:
                    chain.append(row)
                    caps.append(rank + 1 >> 1)
            elif row and bundle & bit:
                sources.append(row)
        top = len(chain)
        goods = chain + sources  # good k is node top + k; chain good k hangs off node k
        slots = top + len(goods)  # slot r is node slots + r
        owner: list[int | None] = [None] * num_right  # per slot: its good k
        held = [0] * num_right                       # per slot: its edge's weight
        at: list[int | None] = [None] * len(goods)   # per good: its slot
        load = [0] * top                             # flow on the edge into each chain node
        work, total = self.work, 0
        while True:
            # Best gains (minus costs) from the source, and each node's predecessor on its
            # best path (-1: the source).
            label: list[int | None] = [None] * (slots + num_right)
            came = [-1] * (slots + num_right)
            queue = [top + k for k in range(top, len(goods)) if at[k] is None]
            if top and load[-1] < min(caps[-1], turns):  # `turns` caps the top edge too
                queue.append(top - 1)
            for node in queue:
                label[node] = 0
            for node in queue:  # the list grows while it is read: a FIFO queue
                base = label[node]
                if node >= slots:  # a slot: its good moves off it
                    k = owner[node - slots]
                    if k is None:
                        continue
                    base -= held[node - slots]
                    steps: Sequence[int] = (top + k,)
                elif node >= top:  # a good: one flow step relaxes its edges
                    k = node - top
                    work += 1
                    if work > limit:
                        self.work = work
                        return None
                    # A held good's own slot gives back its gain exactly: never relabelled.
                    for right, w in goods[k]:
                        nxt, gain = slots + right, base + w
                        old = label[nxt]
                        if old is None or old < gain:
                            label[nxt], came[nxt] = gain, node
                            queue.append(nxt)
                    # a matched chain good goes back up the chain edge that fed it
                    steps = (k,) if k < top and at[k] is not None else ()
                else:  # a chain node: it feeds its good, unless the good holds a slot
                    steps = [top + node] if at[node] is None else []
                    if node and load[node - 1] < caps[node - 1]:
                        steps.append(node - 1)  # down the chain
                    if node + 1 < top and load[node]:
                        steps.append(node + 1)  # back up the edge into it
                for nxt in steps:
                    old = label[nxt]
                    if old is None or old < base:
                        label[nxt], came[nxt] = base, node
                        queue.append(nxt)
            best, end = 0, -1
            for right in range(num_right):
                gain = label[slots + right]
                if gain is not None and gain > best and owner[right] is None:
                    best, end = gain, slots + right
            if end < 0:
                self.work = work
                return total
            total += best
            node = end
            while node >= 0:  # walk the path back to the source, moving one unit
                frm = came[node]
                if node >= slots:  # good frm takes the slot
                    right, k = node - slots, frm - top
                    # A label rise is relaxed again before the queue drains, so labels are tight
                    # along the predecessor tree: their gap is the edge's weight.
                    owner[right], held[right], at[k] = k, label[node] - label[frm], right
                elif node < top:  # into a chain node (an edge into a good needs no update)
                    if frm >= top:
                        at[node] = None  # its good went back up the edge that fed it, off its slot
                    elif 0 <= frm < node:
                        load[frm] -= 1  # back up the edge into the node
                    else:
                        load[node] += 1  # down from the node above, or from the source
                node = frm
