"""Metamorphic relation: scaling the symplectic form scales the certificate.

Multiplying every area by lambda > 0 leaves affine-ruledness, every class,
move, word and tag unchanged.  So `certify` of the scaled input exits as
`certify` of the input, and writes the input's certificate with every area
rational multiplied by lambda and the input digest, a SHA-256 of the input's
canonical JSON, recomputed.  The area rationals of a certificate are the
values of its `areas` maps, the adjoint area its hypothesis check reports and
the area bound a goodness check reports ("area <= ...").  The relation needs
no reference, and the expected document is computed here, not by sympdiv.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import pytest

from conftest import FIXTURES
from test_checker import CERTIFICATES, _run

AREA_BOUND = re.compile(r"(?<=^area <= )[^,:]+")


def _scaled(x, lam: Fraction, key: str | None = None):
    """The document x, stored under key, with every area rational multiplied by lam."""
    if isinstance(x, list):
        return [_scaled(v, lam) for v in x]
    if not isinstance(x, dict):
        return x
    if key == "areas":
        return {k: str(Fraction(v) * lam) for k, v in x.items()}
    out = {k: _scaled(v, lam, k) for k, v in x.items()}
    if x.get("name") == "adjoint area negative":
        out["detail"] = str(Fraction(x["detail"]) * lam)
    elif isinstance(x.get("detail"), str):
        out["detail"] = AREA_BOUND.sub(lambda m: str(Fraction(m[0]) * lam), x["detail"])
    return out


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(1, 3)], ids=["2", "1/3"])
@pytest.mark.parametrize("name,cert", CERTIFICATES, ids=[n for n, _ in CERTIFICATES])
def test_scaling_the_areas_scales_the_certificate(name, cert, lam, tmp_path):
    path = tmp_path / name
    path.write_text(json.dumps(_scaled(json.loads((FIXTURES / name).read_text()), lam)),
                    encoding="utf-8")
    code, text = _run(["certify", str(path)])
    expected = _scaled(cert, lam)
    expected["input_digest"] = hashlib.sha256(json.dumps(
        expected["input"], sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert code == 0
    assert json.loads(text) == expected
    assert expected != cert
