"""Type A with no root data: the extended affine Weyl group of GL_n as
affine permutations of Z, bijections f with f(i + n) = f(i) + n
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, ch. 8), stored as
the window f(0), ..., f(n - 1).

An element t^lam x of type A_{n-1} (``AffineElt``, lam in pairing
coordinates) translates by one fixed dictionary:

- lam lifts to GL_n with lam_{n-1} = 0 and lam_i - lam_{i+1} = p_i;
- x is the permutation of its reduced word ``WeylElt.to_word()``, the
  0-based letter i swapping positions i and i + 1;
- the window is f(i) = x(i) + n lam_{x(i)}, the translation
  j -> j + n lam_j composed after x.

The lift fixes the GL_n centre, so a window is defined up to a uniform
shift by a multiple of n; ``normalize`` picks the one whose entry
congruent to n - 1 is n - 1.  Length, Newton point, descents, lower
intervals and the affine generators below read only the window: nothing
here shares code with ``rootsys``, ``weyl`` or ``affine`` beyond the
translation.
"""

from fractions import Fraction
from itertools import permutations


def lift(p) -> list[int]:
    """GL_n coordinates of a pairing vector p: the last one 0, and
    consecutive differences p_i."""
    lam = [0]
    for pi in reversed(p):
        lam.append(lam[-1] + pi)
    return lam[::-1]


def permutation(word, n: int) -> list[int]:
    """One-line notation of the product of the transpositions (i, i + 1)
    of a word: each letter swaps two positions."""
    x = list(range(n))
    for i in word:
        x[i], x[i + 1] = x[i + 1], x[i]
    return x


def window(w) -> list[int]:
    """The window of an ``AffineElt`` t^lam x of type A."""
    if w.rs.cartan_type != "A":
        raise ValueError("affine permutations model type A only")
    n = w.rs.rank + 1
    lam, x = lift(w.lam), permutation(w.fin.to_word(), n)
    return normalize([x[i] + n * lam[x[i]] for i in range(n)])


def normalize(f: list[int]) -> list[int]:
    """The shift of f by a multiple of n whose entry congruent to n - 1
    is n - 1."""
    n = len(f)
    top = next(v for v in f if v % n == n - 1)
    return [v - (top - (n - 1)) for v in f]


def generator(j: int, n: int) -> list[int]:
    """The window of the simple affine reflection s_j: for j >= 1 the swap
    of positions j - 1 and j; s_0 swaps 0 with -1, and so n - 1 with n."""
    f = list(range(n))
    if j:
        f[j - 1], f[j] = f[j], f[j - 1]
    else:
        f[0], f[n - 1] = -1, n
    return f


def compose(f: list[int], g: list[int]) -> list[int]:
    """The window of f after g, each extended by f(i + kn) = f(i) + kn."""
    n = len(f)
    return normalize([f[v % n] + v - v % n for v in g])


def length(f: list[int]) -> int:
    """#{(i, j) : 0 <= i < n, i < j, f(i) > f(j)}, the inversion count of
    an affine permutation (Shi 1986).  For each residue r of j, it counts
    the k with r + kn > i and f(r) + kn < f(i)."""
    n, count = len(f), 0
    for i in range(n):
        for r in range(n):
            lo = (i - r) // n + 1            # least k with r + kn > i
            hi = -((f[r] - f[i]) // n) - 1  # greatest k with f(r) + kn < f(i)
            count += max(0, hi - lo + 1)
    return count


def newton(f: list[int]) -> tuple[Fraction, ...]:
    """The Newton point in pairing coordinates: consecutive differences of
    the slopes pair with the simple roots."""
    slope = slopes(f)
    return tuple(a - b for a, b in zip(slope, slope[1:]))


def slopes(f: list[int]) -> list[Fraction]:
    """The GL_n slopes of f = t^lam x: lam averaged over each cycle of x,
    sorted decreasingly."""
    n = len(f)
    x, lam = [v % n for v in f], [0] * n
    for i, v in enumerate(f):
        lam[x[i]] = (v - x[i]) // n
    slope, seen = [Fraction(0)] * n, set()
    for start in range(n):
        if start in seen:
            continue
        cycle, j = [], start
        while j not in seen:
            seen.add(j)
            cycle.append(j)
            j = x[j]
        avg = Fraction(sum(lam[j] for j in cycle), len(cycle))
        for j in cycle:
            slope[j] = avg
    slope.sort(reverse=True)
    return slope


def dominates(a: list[Fraction], b: list[Fraction]) -> bool:
    """a >= b in the dominance order on decreasing slope vectors: after
    subtracting each vector's mean (the centre, which the window's shift
    moves), every partial sum of a is at least b's."""
    n = len(a)
    ma, mb = sum(a) / n, sum(b) / n
    pa = pb = 0
    for x, y in zip(a, b):
        pa, pb = pa + x - ma, pb + y - mb
        if pa < pb:
            return False
    return True


def right_descents(f: list[int]) -> set[int]:
    """The j with ell(f s_j) < ell(f): s_j swaps positions j - 1 and j
    (s_0 positions -1 and 0), a descent when f is larger at the first."""
    n = len(f)
    return {j for j in range(n) if (f[j - 1] if j else f[n - 1] - n) > f[j]}


def inverse(f: list[int]) -> list[int]:
    """The window of f^-1: f(i) = v + kn, 0 <= v < n, gives f^-1(v) = i - kn."""
    n = len(f)
    g = [0] * n
    for i, v in enumerate(f):
        g[v % n] = i - (v - v % n)
    return normalize(g)


def left_descents(f: list[int]) -> set[int]:
    """The j with ell(s_j f) < ell(f), the right descents of f^-1."""
    return right_descents(inverse(f))


def lower_interval(f: list[int]) -> set[tuple[int, ...]]:
    """Windows of every g <= f: peeling right descents writes
    f = tau s_{j_1} ... s_{j_l} with l = ell(f) and tau of length 0, and the
    elements below f are tau times the subwords (Bjorner-Brenti, Thm 2.2.2,
    with tau carried along)."""
    n, word, tau = len(f), [], f
    while length(tau):
        j = min(right_descents(tau))
        word.append(j)
        tau = compose(tau, generator(j, n))
    below = {tuple(tau)}
    for j in reversed(word):
        s = generator(j, n)
        below |= {tuple(compose(g, s)) for g in below}
    return below


def cocovers(f: list[int]) -> set[tuple[int, ...]]:
    """Windows of the Bruhat cocovers of f: the f t with t an affine
    transposition, swapping a + kn and b + kn for every k (a < b, a and b
    apart mod n), and ell(f t) = ell(f) - 1.  Only the t with f(a) > f(b)
    shorten f; with a in the window and b = r + kn, f(b) = f(r) + kn, so k
    runs below (f(a) - f(r)) / n, and f t takes f(b) at a and f(a) - kn at r."""
    n, target, out = len(f), length(f) - 1, set()
    for a in range(n):
        for r in range(n):
            if r == a:
                continue
            k = (a - r) // n + 1  # least k with r + kn > a
            while f[r] + k * n < f[a]:
                g = list(f)
                g[a], g[r] = f[r] + k * n, f[a] - k * n
                if length(g) == target:
                    out.add(tuple(normalize(g)))
                k += 1
    return out


def admissible(p) -> set[tuple[int, ...]]:
    """Windows of Adm(mu) for mu with pairing vector p: the union of the
    lower intervals of the translations t^lam, j -> j + n lam_j, by the
    distinct permutations lam of the GL_n lift of p."""
    n, below = len(p) + 1, set()
    for lam in set(permutations(lift(p))):
        below |= lower_interval(normalize([i + n * lam[i] for i in range(n)]))
    return below


def max_newton(windows) -> tuple[Fraction, ...]:
    """Of the windows' Newton points, the one that dominates all the
    others, in pairing coordinates; ValueError when none does.  Only the
    highest, the largest sum of centred partial sums, can."""
    points = {}
    for g in windows:
        slope = slopes(g)
        points.setdefault(tuple(a - b for a, b in zip(slope, slope[1:])), slope)

    def height(slope):
        mean, acc, total = sum(slope) / len(slope), 0, 0
        for x in slope:
            acc += x - mean
            total += acc
        return total

    top = max(points, key=lambda p: height(points[p]))
    if not all(dominates(points[top], b) for b in points.values()):
        raise ValueError("no Newton point dominates all the others")
    return top
