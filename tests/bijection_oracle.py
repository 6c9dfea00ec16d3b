"""The recursive bijection search, kept as the oracle that the package's
iterative search in `ualie.finite` is checked against.

It is the search as it stood before the iterative rewrite: nested
``yield from`` recursion, a score recounted over every assigned element
for each candidate, and forced-image propagation that checks each newly
assigned element against every assigned one.  Both searches branch in the
same order, so they must yield the same maps in the same order.
"""

from ualie.errors import OrderMismatch


def _enumerate_bijections(r, s):
    """Yield every bijection alpha with alpha(0)=0 preserving commutators.

    Backtracking with forced-image propagation: once alpha(x) and alpha(a)
    are both set, alpha([x,a]) and alpha([a,x]) are forced; contradictions
    prune the branch.  The next element to assign is the unassigned one with
    the most nonzero bracket constraints against already-assigned elements
    (ties broken by label).  Yielded tuples are complete and consistent.
    """
    N = r.order
    if N != s.order:
        raise OrderMismatch(f"orders differ: {N} vs {s.order}")
    rbrk, sbrk = r.bracket, s.bracket
    alpha: list = [None] * N
    used = [False] * N
    alpha[0] = 0
    used[0] = True
    assigned = [0]

    def undo(trail):
        for c in trail:
            used[alpha[c]] = False
            alpha[c] = None
            assigned.pop()

    def pick_next():
        best, best_score = -1, -1
        for x in range(N):
            if alpha[x] is not None:
                continue
            score = 0
            for a in assigned:
                if rbrk[x][a] != 0 or rbrk[a][x] != 0:
                    score += 1
            if score > best_score:
                best, best_score = x, score
        return best

    def search():
        if len(assigned) == N:
            yield tuple(alpha)
            return
        x = pick_next()
        for y in range(N):
            if used[y]:
                continue
            alpha[x] = y
            used[y] = True
            assigned.append(x)
            trail = [x]
            if propagate(len(assigned) - 1, trail):
                yield from search()
            undo(trail)

    def propagate(qi, trail):
        while qi < len(assigned):
            x = assigned[qi]
            qi += 1
            ax = alpha[x]
            for a in list(assigned):
                aa = alpha[a]
                for c, t in (
                    (rbrk[x][a], sbrk[ax][aa]),
                    (rbrk[a][x], sbrk[aa][ax]),
                ):
                    ac = alpha[c]
                    if ac is None:
                        if used[t]:
                            return False
                        alpha[c] = t
                        used[t] = True
                        assigned.append(c)
                        trail.append(c)
                    elif ac != t:
                        return False
        return True

    yield from search()
