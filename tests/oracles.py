"""Brute-force oracles that only the tests use.

The Bott calculator reads the length of a signed permutation as the number
of positive roots with which the weight pairs negatively.
hyperoctahedral_word_lengths finds the minimal word lengths by breadth-first
search over the hyperoctahedral group, so the tests can hold the degree of
bott_type_c at w.rho - rho against the word length of w.

saturate_by_iterated_quotient computes I : J^infty as the first of
I : J, I : J^2, ... that the next quotient leaves as it is, so the tests can
hold saturate_by_ideal's intersection of per-generator saturations against it.
intersection_by_elimination always takes the t-elimination, so the tests can
hold ideal_intersection's containment shortcut against it.
degrevlex_cmp compares exponent tuples by the definition of degrevlex, so the
tests can hold the engine's packed keys against it.
"""

from theta_loci.groebner import Ideal, _contract_t, ideal_quotient


def degrevlex_cmp(a, b) -> int:
    """-1, 0 or +1 as exponent tuple a is below, equal to or above b.

    Higher total degree wins; on ties the tuple with the smaller exponent
    on the last differing variable (scanning from the last variable) is larger.
    """
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def hyperoctahedral_word_lengths(n: int) -> dict[tuple[int, ...], int]:
    """BFS word lengths w.r.t. s_1..s_{n-1} (adjacent swap) and s_n (negate last)."""
    ident = tuple(range(1, n + 1))
    dist = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            neighbors = []
            for i in range(n - 1):  # s_i w: swap the values i+1 and i+2
                a, b = i + 1, i + 2
                swapped = []
                for x in w:
                    if abs(x) == a:
                        swapped.append(b if x > 0 else -b)
                    elif abs(x) == b:
                        swapped.append(a if x > 0 else -a)
                    else:
                        swapped.append(x)
                neighbors.append(tuple(swapped))
            neighbors.append(tuple(-x if abs(x) == n else x for x in w))  # s_n w
            for u in neighbors:
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def saturate_by_iterated_quotient(a: Ideal, b: Ideal) -> Ideal:
    """I : J^infty as a stabilized iterated quotient: I : J^(k+1) is
    (I : J^k) : J, and the chain stops once a quotient changes nothing."""
    cur = a
    while True:
        nxt = ideal_quotient(cur, b)
        if nxt == cur:
            return cur
        cur = nxt


def intersection_by_elimination(a: Ideal, b: Ideal) -> Ideal:
    """I cap J = (t*I + (1 - t)*J) cap R, eliminating t."""
    return _contract_t(a.ring, lambda t, up: [t * up(g) for g in a.generators]
                       + [(1 - t) * up(g) for g in b.generators])
