"""`kernel.fm_project` against the version that prunes by LP after every step.

The reference below is the projection as it was before an equation
substitution stopped taking the LP prune: after every step, substitution or
FM, it drops zero rows, dedups canonical rows, checks emptiness by LP and
removes redundant rows by one LP per row (`reference_nonredundant`, with no
ray certificates).  Once one full prune has run, a substitution is an affine
bijection and cannot make a row redundant, so both must give identical
systems.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polylift import linalg
from polylift.kernel import HPoly, feasible_point, fm_project
from test_linalg import ref_canon_eq, ref_canon_ineq
from test_redundancy import reference_nonredundant

F = Fraction
ZERO = F(0)


def reference_fm_project(poly, keep):
    keep_set = sorted(set(keep))
    dim = poly.dim
    ineqs = [(list(a), b) for a, b in poly.ineqs]
    eqs = [(list(c), d) for c, d in poly.eqs]
    to_drop = [j for j in range(dim) if j not in keep_set]
    empty = False

    def prune():
        nonlocal ineqs, eqs, empty
        kept_eqs = []
        for c, d in eqs:
            if any(c):
                kept_eqs.append((c, d))
            elif d != 0:
                empty = True
        eqs = kept_eqs
        best = {}
        for a, b in ineqs:
            if not any(a):
                if b < 0:
                    empty = True
                continue
            ca, cb = ref_canon_ineq(a, b)
            if ca not in best or cb < best[ca]:
                best[ca] = cb
        if empty:
            ineqs = [([ZERO] * dim, F(-1))]
            eqs = []
            return
        ineqs = [(list(a), b) for a, b in sorted(best.items())]
        current = HPoly(dim, [(tuple(a), b) for a, b in ineqs], [(tuple(c), d) for c, d in eqs])
        if feasible_point(current) is None:
            empty = True
            ineqs = [([ZERO] * dim, F(-1))]
            eqs = []
            return
        keep_flags = reference_nonredundant(current)
        ineqs = [row for row, k in zip(ineqs, keep_flags) if k]

    while to_drop and not empty:
        sub = None
        for ei, (c, d) in enumerate(eqs):
            for j in to_drop:
                if c[j]:
                    sub = (ei, j)
                    break
            if sub:
                break
        if sub:
            ei, j = sub
            c, d = eqs.pop(ei)
            for rows in (ineqs, eqs):
                for idx, (a, b) in enumerate(rows):
                    if a[j]:
                        ratio = a[j] / c[j]
                        na = [ak - ratio * ck for ak, ck in zip(a, c)]
                        na[j] = ZERO
                        rows[idx] = (na, b - ratio * d)
            to_drop.remove(j)
            prune()
            continue
        best_j = None
        best_cost = None
        for j in to_drop:
            npos = sum(1 for a, _ in ineqs if a[j] > 0)
            nneg = sum(1 for a, _ in ineqs if a[j] < 0)
            cost = (npos * nneg, j)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_j = j
        j = best_j
        new_rows = [(a, b) for a, b in ineqs if a[j] == 0]
        for ap, bp in ((a, b) for a, b in ineqs if a[j] > 0):
            for an, bn in ((a, b) for a, b in ineqs if a[j] < 0):
                lp, ln = -an[j], ap[j]
                row = [lp * x + ln * y for x, y in zip(ap, an)]
                row[j] = ZERO
                new_rows.append((row, lp * bp + ln * bn))
        ineqs = new_rows
        to_drop.remove(j)
        prune()

    out_ineqs = []
    for a, b in ineqs:
        assert not any(a[j] for j in range(dim) if j not in keep_set)
        out_ineqs.append((tuple(a[j] for j in keep_set), b))
    out_eqs = []
    for c, d in eqs:
        assert not any(c[j] for j in range(dim) if j not in keep_set)
        row = (tuple(c[j] for j in keep_set), d)
        if any(row[0]):
            out_eqs.append(ref_canon_eq(*row))
        elif d != 0:
            out_ineqs = [((ZERO,) * len(keep_set), F(-1))]
            out_eqs = []
            break
    return HPoly(len(keep_set), tuple(out_ineqs), tuple(out_eqs))


@st.composite
def systems(draw):
    """Small boxes around a point x0, with extra rows and equations through
    x0: fractional entries, rows implied by others, repeated and scaled rows,
    and now and then an empty system.  Returns (poly, keep)."""
    dim = draw(st.integers(2, 4))
    coef = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
    x0 = [F(draw(st.integers(-2, 4)), 2) for _ in range(dim)]
    rows = []
    for i, x in enumerate(x0):
        unit = linalg.unit(dim, i)
        rows.append((tuple(-u for u in unit), -x + draw(st.integers(0, 1))))
        rows.append((unit, x + draw(st.integers(0, 2))))
    for _ in range(draw(st.integers(0, 3))):
        a = tuple(draw(coef) for _ in range(dim))
        rows.append((a, linalg.dot(a, x0) + draw(st.integers(0, 2))))
    # redundant rows: a loosened nonnegative combination, a scaled copy
    for _ in range(draw(st.integers(0, 2))):
        (a1, b1), (a2, b2) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        lam, mu, loose = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
        rows.append((tuple(lam * x + mu * y for x, y in zip(a1, a2)), lam * b1 + mu * b2 + loose))
    if draw(st.booleans()):
        a, b = draw(st.sampled_from(rows))
        rows.append((tuple(2 * x for x in a), 2 * b))
    eqs = []
    for _ in range(draw(st.integers(0, 3))):
        c = tuple(draw(coef) for _ in range(dim))
        eqs.append((c, linalg.dot(c, x0)))
    if draw(st.integers(0, 5)) == 0:
        # an empty system: a row and its negation pushed past it
        a, b = draw(st.sampled_from(rows + eqs))
        rows.append((tuple(-x for x in a), -b - 1))
    # keeping every coordinate eliminates nothing: the rows come back as
    # given, unscaled and unpruned
    keep = draw(st.lists(st.integers(0, dim - 1), max_size=dim, unique=True))
    return HPoly(dim, draw(st.permutations(rows)), eqs), sorted(keep)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(systems())
def test_fm_project_matches_full_prune_reference(case):
    poly, keep = case
    assert fm_project(poly, keep) == reference_fm_project(poly, keep)


def test_an_equation_reading_zero_equals_c_empties_the_projection():
    # 0·x = 1 has no variable to substitute: with a coordinate to drop the
    # prune after the FM step finds it, with none the check after the loop
    poly = HPoly(2, [((1, 1), 3), ((-1, 0), 0)], [((0, 0), 1)])
    empty = HPoly(1, [((ZERO,), F(-1))])
    assert fm_project(poly, [0]) == empty
    assert fm_project(poly, [0, 1]) == HPoly(2, [((ZERO, ZERO), F(-1))])
