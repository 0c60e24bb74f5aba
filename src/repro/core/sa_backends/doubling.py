"""Reference prefix-doubling suffix-array construction.

This is the seed implementation, preserved verbatim as the reference
the property tests (``tests/test_sa_backends.py``) compare SA-IS
against: prefix doubling with Python's built-in sort and a per-element
lambda key at each doubling step. Each of the O(log n) rounds sorts with
a closure that allocates a rank-pair tuple per comparison key -- slow on
purpose; it is an oracle, not an option, and must stay unoptimised.
"""


def suffix_array_doubling(s):
    """Suffix array of a rank-compressed token array, by prefix doubling."""
    n = len(s)
    if n == 0:
        return []
    if n == 1:
        return [0]
    order = sorted(range(n), key=lambda i: s[i])
    ranks = [0] * n
    ranks[order[0]] = 0
    for i in range(1, n):
        ranks[order[i]] = ranks[order[i - 1]] + (
            1 if s[order[i]] != s[order[i - 1]] else 0
        )
    k = 1
    tmp = [0] * n
    while k < n:
        def key(i):
            second = ranks[i + k] if i + k < n else -1
            return (ranks[i], second)

        order.sort(key=key)
        tmp[order[0]] = 0
        for i in range(1, n):
            tmp[order[i]] = tmp[order[i - 1]] + (
                1 if key(order[i]) != key(order[i - 1]) else 0
            )
        ranks = tmp[:]
        if ranks[order[-1]] == n - 1:
            break
        k <<= 1
    return order
