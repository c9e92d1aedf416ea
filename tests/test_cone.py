"""Symplectic-cone membership of area vectors, `lattice.cone_violation`.

* For n = 3..8 the exceptional classes of CP2#n are the Weyl orbit of E1, a
  finite set: the Cremona reduction names a class of non-positive area
  exactly when the orbit has one, and the class it names is such a class.
* The three cone fixtures have w.w > 0, positive generator areas and
  positive component areas, yet an exceptional class of negative area:
  `validate` and `certify` refuse them (exit 1, stage `validate`), and so
  does `check` on a certificate whose input areas were replaced by theirs.
* w and -w have the same square, so w.w > 0 does not tell the cone from its
  negative: `validate` refuses areas whose first head generator has
  non-positive area.
* The square of w is the volume w.Q^-1.w of a form with areas w.  The
  twisted bundle's form is not its own inverse, and there the volume is
  F (2 B1 - F).
* The three fixtures of these two cases are refused by `validate` and
  `certify` (exit 1, stage `validate`); they used to pass `validate` and
  stop at the hypothesis.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, weyl_orbit
from sympdiv.cli import main
from sympdiv.divisor import DivisorConfig, validate
from sympdiv.lattice import AmbientLattice, AreaVector, area, cone_violation

@functools.cache
def _exceptional_classes(n):
    return weyl_orbit(AmbientLattice.rational_blowup(n).basis_class("E1"))


def _rational(values):
    amb = AmbientLattice.rational_blowup(len(values) - 1)
    return AreaVector(amb, tuple(Fraction(v) for v in values))


@st.composite
def positive_squares(draw):
    """CP2#n, n = 3..8, with w_H = 1 and w.w > 0; the E-areas go from 1/5
    to 3/5, so that about a quarter of the vectors lie outside the cone."""
    n = draw(st.integers(3, 8))
    share = st.fractions(min_value=Fraction(1, 5), max_value=Fraction(3, 5), max_denominator=97)
    w = _rational([1] + [draw(share) for _ in range(n)])
    assume(w.square() > 0)
    return w


@settings(max_examples=150, deadline=None)
@given(positive_squares())
@example(_rational([1, "11/20", "11/20", "1/10"]))  # cone_cp2_3.json: H - E1 - E2
# 2H - E1 - ... - E5 is the one class below 0, reached by two Cremona steps
@example(_rational([1] + ["41/100"] * 5))
@example(_rational([1, "1/3", "1/3", "1/3"]))  # reduced with equality: inside
def test_cremona_reduction_matches_the_weyl_orbit(w):
    negative = [e for e in _exceptional_classes(w.ambient.n_exc) if area(e, w) <= 0]
    named = cone_violation(w)
    event("inside the cone" if named is None else "outside the cone")
    assert (named is None) == (not negative)
    assert named is None or named in negative


@pytest.mark.parametrize("values,named", [
    (["1"] + ["41/100"] * 5, "2H-E1-E2-E3-E4-E5"),
    (["2", "3/2"], None),  # CP2#1: E1 is the one exceptional class
])
def test_cone_violation_names_the_class(values, named):
    found = cone_violation(_rational(values))
    assert (None if found is None else str(found)) == named


def test_listed_kinds_check_their_list():
    amb = AmbientLattice.ruled_trivial(1, 2)
    assert str(cone_violation(AreaVector.from_values(amb, [3, 1, "1/2", "3/2"]))) == "F-E2"
    assert cone_violation(AreaVector.from_values(amb, [3, 1, "1/2", "1/3"])) is None
    twisted = AmbientLattice.ruled_twisted(1)
    assert cone_violation(AreaVector.from_values(twisted, [3, 1])) is None


CONE_FIXTURES = {
    # name -> (the class named, its area, areas inside the cone)
    "cone_cp2_2.json": ("H-E1-E2", "-1/5", {"H": "1", "E1": "1/4", "E2": "1/4"}),
    "cone_cp2_3.json": ("H-E1-E2", "-1/10", {"H": "1", "E1": "1/4", "E2": "1/4", "E3": "1/10"}),
    "cone_ruled_trivial.json": ("F-E1", "-1/2", {"B": "3", "F": "1", "E1": "1/2"}),
}


@pytest.mark.parametrize("name", sorted(CONE_FIXTURES))
def test_cone_fixtures_are_refused(name, tmp_path, capsys):
    cls, value, inside = CONE_FIXTURES[name]
    message = f"outside the symplectic cone: exceptional class {cls} has area {value}"
    path = FIXTURES / name
    assert main(["validate", str(path)]) == 1
    assert f"invalid: area vector {message}" in capsys.readouterr().out
    assert main(["certify", str(path)]) == 1
    assert "failed at stage 'validate'" in capsys.readouterr().err

    doc = json.loads(path.read_text())
    good = tmp_path / "inside.json"
    good.write_text(json.dumps(dict(doc, areas=inside)), encoding="utf-8")
    assert main(["certify", str(good)]) == 0
    cert = json.loads(capsys.readouterr().out)
    cert["input"]["areas"] = doc["areas"]
    bad = tmp_path / "cert.json"
    bad.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["check", str(bad)]) == 1
    assert f"failed: input is valid: area vector {message}" in capsys.readouterr().out


def _one_component(amb, cls, areas):
    config = DivisorConfig.build(amb, [("D", amb.cls(**cls))], [])
    return config, AreaVector.from_values(amb, areas)


@pytest.mark.parametrize("config,w,message", [
    (*_one_component(AmbientLattice.rational_blowup(1), {"E1": 1}, [-2, 1]), "H has area -2"),
    (*_one_component(AmbientLattice.product_of_spheres(), {"f1": -1}, [-1, -2]), "f1 has area -1"),
    (*_one_component(AmbientLattice.ruled_twisted(1), {"F": 1}, [-3, 1]), None),
], ids=["cp2_1", "s2s2", "twisted"])
def test_areas_of_the_negative_cone_are_refused(config, w, message):
    # w.w > 0 and every component has positive area, but -w is in the cone
    assert w.areas[0] < 0 and all(area(c.cls, w) > 0 for c in config.components)
    problems = validate(config, w)
    if message is None:  # the volume is F (2 B1 - F) = -7 here
        assert problems == ["area vector has non-positive square -7"]
    else:
        assert problems == [f"area vector outside the symplectic cone: {message}"]


def test_the_twisted_square_is_the_volume():
    twisted = AmbientLattice.ruled_twisted(2)
    assert AreaVector.from_values(twisted, [7, 1]).square() == 13  # w.Q.w read 63
    assert AreaVector.from_values(twisted, ["1/3", 1]).square() == Fraction(-1, 3)  # read 7/9
    assert AreaVector.from_values(twisted, ["1/2", 1]).square() == 0  # B1 = F/2: no volume


BACKWARD_FIXTURES = {
    "cone_cp2_1_backward.json": "area vector outside the symplectic cone: H has area -2",
    "cone_s2s2_backward.json": "area vector outside the symplectic cone: f1 has area -1",
    "cone_twisted.json": "area vector has non-positive square -1/3",
}


@pytest.mark.parametrize("name", sorted(BACKWARD_FIXTURES))
def test_backward_and_twisted_fixtures_are_refused(name, capsys):
    path = FIXTURES / name
    assert main(["validate", str(path)]) == 1
    assert f"invalid: {BACKWARD_FIXTURES[name]}\n" in capsys.readouterr().out
    assert main(["certify", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"certification failed at stage 'validate': [validate] {BACKWARD_FIXTURES[name]}\n")
