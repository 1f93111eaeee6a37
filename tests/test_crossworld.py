"""Single-world families cannot see cross-world assumptions.

On A -> M -> Y with A -> Y and targets {A, M}, a cross-world law is a joint
law of A, M(0), M(1) and Y(a, m) for every a and m. The member for an
intervention reads each variable in the world that intervention sets. Two
cross-world laws are built per seed: a product law, where A, M(0), M(1),
Y(0, .) and Y(1, .) are independent blocks as under independent errors, and
a coupled law, where Y(1, .) depends on M(0) while the law of A, M(a) and
Y(a, .) stays the same for each a. Their families, and so everything the
three checkers and the g-formula see, are equal; the cross-world
independence and the pure direct effect can still differ.
"""

import itertools
import random
from fractions import Fraction

from swigcheck.decision import family_to_kernel
from swigcheck.dist import FiniteDistribution, product_cells
from swigcheck.family import (
    CounterfactualFamily,
    build_ffrcistg,
    check_complete_graph_markov,
    check_distributional_consistency,
    check_swig_local_markov,
)
from swigcheck.graph import Dag

DAG = Dag(["A", "M", "Y"], [("A", "M"), ("M", "Y"), ("A", "Y")], targets=["A", "M"])
NAMES = ("A", "M0", "M1", "Y00", "Y01", "Y10", "Y11")
INTERVENTIONS = [
    {t: v for t, v in zip(("A", "M"), values) if v is not None}
    for values in itertools.product((None, 0, 1), repeat=2)
]


def random_law(rng, k):
    weights = [rng.randint(1, 9) for _ in range(k)]
    return [Fraction(w, sum(weights)) for w in weights]


def cross_world_laws(seed):
    """Product law, coupled law, and the coupling's perturbation ``eps * s * t``."""
    rng = random.Random(seed)
    p_a, p_m0, p_m1 = random_law(rng, 2), random_law(rng, 2), random_law(rng, 2)
    p_y0, p_y1 = random_law(rng, 4), random_law(rng, 4)
    # a nonzero perturbation of the law of (M(0), Y(1, .)) whose margins are zero
    s = (1, -1)
    t = [rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-3, 3) for _ in range(2)]
    t.append(-sum(t))
    eps = min(p * q for p in p_m0 for q in p_y1) / (2 * max(map(abs, t)) + 1)
    product, coupled = {}, {}
    for a, m0, m1, *y in product_cells([2] * 7):
        y0, y1 = 2 * y[0] + y[1], 2 * y[2] + y[3]
        rest = p_a[a] * p_m1[m1] * p_y0[y0]
        product[(a, m0, m1, *y)] = rest * p_m0[m0] * p_y1[y1]
        coupled[(a, m0, m1, *y)] = rest * (p_m0[m0] * p_y1[y1] + eps * s[m0] * t[y1])
    variables = [(n, 2) for n in NAMES]
    return FiniteDistribution(variables, product), FiniteDistribution(variables, coupled), (eps, s, t)


def member(law, intervention):
    mass = {}
    for cell, q in law.support():
        world = dict(zip(NAMES, cell))
        a = world["A"]
        a_set = intervention.get("A", a)
        m = world[f"M{a_set}"]
        y = world[f"Y{a_set}{intervention.get('M', m)}"]
        mass[(a, m, y)] = mass.get((a, m, y), 0) + q
    return FiniteDistribution([("A", 2), ("M", 2), ("Y", 2)], mass)


def family_of(law):
    return CounterfactualFamily(DAG, {"A": 2, "M": 2, "Y": 2}, [(iv, member(law, iv)) for iv in INTERVENTIONS])


def independent(law, xs, ys):
    joint, px, py = law.marginal(xs + ys), law.marginal(xs), law.marginal(ys)
    assert joint.names == tuple(xs + ys)
    return all(joint.p(cx + cy) == px.p(cx) * py.p(cy) for cx in px.cells() for cy in py.cells())


def pure_direct_effect(law):
    """E[Y(1, M(0))] - E[Y(0, M(0))], read from the cross-world law."""
    return sum(
        law.marginal(["M0", f"Y1{m}"]).p((m, 1)) - law.marginal(["M0", f"Y0{m}"]).p((m, 1)) for m in (0, 1)
    )


def mediation_formula(fam):
    """sum over m of (E[Y | do(A=1, M=m)] - E[Y | do(A=0, M=m)]) P(M=m | do(A=0))."""
    mean_y = lambda iv: fam.member(iv).marginal(["Y"]).p((1,))
    return sum(
        (mean_y({"A": 1, "M": m}) - mean_y({"A": 0, "M": m})) * fam.member({"A": 0}).marginal(["M"]).p((m,))
        for m in (0, 1)
    )


def test_families_agree_while_cross_world_quantities_differ():
    gaps = []
    for seed in range(12):
        product, coupled, (eps, s, t) = cross_world_laws(seed)
        fam_p, fam_c = family_of(product), family_of(coupled)
        assert fam_p.members == fam_c.members, seed
        k_p, k_c = family_to_kernel(fam_p), family_to_kernel(fam_c)
        assert k_p.regime_space == k_c.regime_space and k_p.members == k_c.members, seed
        for fam in (fam_p, fam_c):
            assert check_distributional_consistency(fam).holds, seed
            assert check_swig_local_markov(fam).holds, seed
            assert check_complete_graph_markov(fam).holds, seed
            assert build_ffrcistg(DAG, DAG.targets, fam.observed()).members == fam.members, seed

        for law in (product, coupled):
            assert independent(law, ["M0"], ["Y00", "Y01"]), seed
            assert independent(law, ["M1"], ["Y10", "Y11"]), seed
        assert independent(product, ["M0"], ["Y10", "Y11"]), seed
        assert not independent(coupled, ["M0"], ["Y10", "Y11"]), seed

        assert pure_direct_effect(product) == mediation_formula(fam_p), seed
        # the coupling moves E[Y(1, M(0))] by eps * sum of s(m) t(y) over the
        # states y of Y(1, .) with Y(1, m) = 1; it can cancel
        gap = eps * sum(s[m] * t[y] for m in (0, 1) for y in range(4) if (y >> (1 - m)) & 1)
        assert pure_direct_effect(coupled) - mediation_formula(fam_c) == gap, seed
        gaps.append(gap)
    assert any(gaps) and not all(gaps)
