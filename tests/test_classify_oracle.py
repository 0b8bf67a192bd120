"""classify_quotient against the scan oracle, label text or error text.

The maps are the canonical P_r -> kG quotient of every quotient-family
shape of dimension at most 54 at p = 3 and p = 5, over F_p and F_{p^2},
each also edited five ways: two leading zero u's prepended, v -> 0,
u0 -> 0, and two seeded single-entry perturbations.  Mrs runs every eta;
Mrf runs, for each (r, t), an f with every coefficient nonzero.
"""

import random

import pytest

from helpers import canonical_quotient_morphism
from oracles.classify_oracle import classify_quotient_scan
from supvar.errors import ValidationError
from supvar.gfield import make_field
from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra
from supvar.superalg.morphisms import (
    SuperalgebraMorphism,
    classify_quotient,
)
from supvar.superalg.pr import PrPresentation

CAP = 54


def _specs(p):
    out = [GroupAlgebraSpec("GaMinus", p)]
    out += [GroupAlgebraSpec("Gar", p, r=r) for r in range(4) if p**r <= CAP]
    for r in range(1, 4):
        for t in range(1, 4):
            if 2 * p ** (r + t - 1) > CAP:
                continue
            out += [GroupAlgebraSpec("Mrs", p, r=r, s=t, eta=eta) for eta in range(p)]
            f = tuple(range(1, t + 1))  # every c_i nonzero, since t < p
            out.append(GroupAlgebraSpec("Mrf", p, r=r, f=f, eta=p - 1))
    return out


def _outcome(classify, phi):
    try:
        return classify(phi).text(phi.target.F.field)
    except ValidationError as err:
        return f"error: {err}"


def _edits(phi, seed):
    """The canonical map and its five edits, as (r, images)."""
    B, r, imgs = phi.target, phi.source.r, phi.images
    yield r, imgs
    shifted = {f"u{i + 2}": imgs[f"u{i}"] for i in range(r)}
    yield r + 2, {"u0": B.el_zero(), "u1": B.el_zero(), **shifted, "v": imgs["v"]}
    yield r, {**imgs, "v": B.el_zero()}
    yield r, {**imgs, "u0": B.el_zero()}
    rng = random.Random(seed)
    for _ in range(2):
        g = rng.choice(sorted(imgs))
        vec = imgs[g].copy()
        i = rng.randrange(B.dim)
        vec[i] = rng.choice([c for c in range(B.F.q) if c != vec[i]])
        yield r, {**imgs, g: vec}


CASES = [(spec, n) for p in (3, 5) for spec in _specs(p) for n in (1, 2)]
IDS = [f"{spec.label()}-F{spec.p}^{n}" for spec, n in CASES]


@pytest.mark.parametrize("spec, n", CASES, ids=IDS)
def test_classify_matches_the_scan_oracle(spec, n):
    alg, _ = build_group_algebra(spec, make_field(spec.p, n))
    base = canonical_quotient_morphism(alg)
    for r, images in _edits(base, f"{spec.label()}/{n}"):
        pres = PrPresentation(spec.p, r)
        got = _outcome(classify_quotient, SuperalgebraMorphism(pres, alg, images))
        want = _outcome(classify_quotient_scan, SuperalgebraMorphism(pres, alg, images))
        assert got == want, (r, {g: v.tolist() for g, v in images.items()})
