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
    """

    def __init__(self, num_right: int, adjacency: Adjacency, order: Sequence[int]) -> None:
        self.num_right = num_right
        self.adjacency = adjacency
        self.order = [(g, 1 << g, bool(adjacency[g])) for g in order]
        self.work = 0

    def value(self, avail: int, bundle: int, turns: int, limit: int) -> int | None:
        adjacency = self.adjacency
        num_right = self.num_right
        chain: list[int] = []    # the available goods with edges, in σ order: c_1 first
        caps: list[int] = []     # the capacity of the edge into each chain node
        unset: list[int | None] = [None] * len(adjacency)  # one entry per good
        node_of = unset[:]       # per chain good: its node
        slot_of = unset[:]       # per matched good: its slot
        sources: list[int] = []  # the bundle's goods with edges
        rank = 0
        for g, bit, linked in self.order:
            if avail & bit:
                rank += 1
                if linked:
                    node_of[g] = len(chain)
                    chain.append(g)
                    caps.append(rank + 1 >> 1)
            elif linked and bundle & bit:
                sources.append(g)
        top = len(chain)  # the source, as the node above the chain's last
        if top:
            caps[-1] = min(caps[-1], turns)
        owner: list[int | None] = [None] * num_right  # per slot: its good
        held = [0] * num_right                       # per slot: its edge's weight
        load = [0] * top                             # flow on the edge into each chain node
        work, total = self.work, 0
        while True:
            # Best gains (minus costs) from the source: per slot, with the good and the
            # weight of the edge into it; per chain node, with the node before it (itself:
            # its good, moving off its slot); per good.  A good is fed fresh, by the source
            # or its chain node, or held, moving off its slot.
            gain: list[int | None] = [None] * num_right
            via_good = [0] * num_right
            via_weight = [0] * num_right
            level: list[int | None] = [None] * top
            came = [0] * top
            worth = unset[:]
            queue: list[int] = []  # slots r, goods as num_right + g, chain nodes as ~i
            for g in sources:
                if slot_of[g] is None:
                    worth[g] = 0
                    queue.append(num_right + g)
            if top and load[-1] < caps[-1]:
                level[-1], came[-1] = 0, top
                queue.append(~(top - 1))
            for item in queue:  # the list grows while it is read: a FIFO queue
                if item >= num_right:
                    g = item - num_right
                    base = worth[g]
                    work += 1
                    if work > limit:
                        self.work = work
                        return None
                    # A held good's own slot gives back its gain exactly: never relabelled.
                    for right, weight in adjacency[g]:
                        candidate = base + weight
                        label = gain[right]
                        if label is None or label < candidate:
                            gain[right] = candidate
                            via_good[right], via_weight[right] = g, weight
                            queue.append(right)
                    i = node_of[g]
                    if i is None or slot_of[g] is None:
                        continue
                    moves = ((i, i),)  # back up the chain edge that fed it
                elif item >= 0:
                    g = owner[item]
                    if g is not None:
                        base = gain[item] - held[item]
                        label = worth[g]
                        if label is None or label < base:
                            worth[g] = base
                            queue.append(num_right + g)
                    continue
                else:
                    i = ~item
                    base = level[i]
                    g = chain[i]
                    if slot_of[g] is None:
                        label = worth[g]
                        if label is None or label < base:
                            worth[g] = base
                            queue.append(num_right + g)
                    moves = ()
                    if i and load[i - 1] < caps[i - 1]:
                        moves += ((i - 1, i),)  # down the chain
                    if i + 1 < top and load[i]:
                        moves += ((i + 1, i),)  # back up the edge into i
                for i, frm in moves:
                    label = level[i]
                    if label is None or label < base:
                        level[i], came[i] = base, frm
                        queue.append(~i)
            best, end = 0, None
            for right, label in enumerate(gain):
                if label is not None and label > best and owner[right] is None:
                    best, end = label, right
            if end is None:
                self.work = work
                return total
            total += best
            slot: int | None = end
            while slot is not None:  # walk the path back to the source, moving one unit
                g = via_good[slot]
                owner[slot], held[slot] = g, via_weight[slot]
                slot, slot_of[g] = slot_of[g], slot  # g moved off its old slot, if any
                i = node_of[g] if slot is None else None
                while i is not None:  # g was fed down the chain: walk up it to the source
                    frm = came[i]
                    if frm == i:  # here the chain good came back off the slot it held
                        g = chain[i]
                        slot, slot_of[g], i = slot_of[g], None, None
                        continue
                    if frm > i:
                        load[i] += 1
                    else:
                        load[frm] -= 1
                    i = frm if frm < top else None
