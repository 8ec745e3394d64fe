"""Line-oriented text format for curve specifications.

Grammar (UTF-8, '#' starts a comment, blank lines ignored, each key at
most once):

    p = <prime>                    # required, before any pole
    field_degree = <k>             # optional, default 1
    pole inf: c0 c1 ... c_d0       # coefficients of f_0, degrees 0..d_0
    pole <elem>: c1 ... c_dj       # principal part, degrees 1..d_j

Field elements are written either as a bare integer (reduced mod p, the
prime-subfield embedding) or as a base-p digit tuple (a0,a1,...) without
spaces, each digit in [0, p); a tuple is never reduced.  Finite-pole
coefficient lists start at degree 1 by construction, so a well-formed file
cannot smuggle in a constant term.

Example (y^7 - y = x^3):

    p = 7
    pole inf: 0 0 0 1
"""

from __future__ import annotations

from .curve import CurveSpec, PoleDatum, validate
from .errors import ParseError
from .finite_field import GF, Field, FieldElement


def _parse_element(token: str, field: Field, lineno: int) -> FieldElement:
    if token.startswith("("):
        if not token.endswith(")"):
            raise ParseError(lineno, f"unterminated digit tuple {token!r}")
        try:
            digits = [int(d) for d in token[1:-1].split(",")]
        except ValueError:
            raise ParseError(lineno, f"bad digit tuple {token!r}") from None
        if len(digits) > field.k:
            raise ParseError(
                lineno, f"{token!r} has more than k={field.k} digits"
            )
        if not all(0 <= d < field.p for d in digits):
            raise ParseError(lineno, f"{token!r} has a digit outside [0, {field.p})")
        return field(digits)
    try:
        return field(int(token))
    except ValueError:
        raise ParseError(lineno, f"bad field element {token!r}") from None


def parse_spec_text(text: str) -> CurveSpec:
    """Parse and validate a curve spec from a string."""
    keys: dict[str, int] = {}
    field: Field | None = None
    poles: list[PoleDatum] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("pole"):
            rest = line[4:].strip()
            if ":" not in rest:
                raise ParseError(lineno, "pole line needs 'pole <loc>: coeffs'")
            if "p" not in keys:
                raise ParseError(lineno, "p must be set before any pole")
            if field is None:
                field = GF(keys["p"], keys.get("field_degree", 1))
            loc_token, coeff_part = rest.split(":", 1)
            loc_token = loc_token.strip()
            tokens = coeff_part.split()
            if not tokens:
                raise ParseError(lineno, "pole has no coefficients")
            coeffs = [_parse_element(t, field, lineno) for t in tokens]
            if loc_token == "inf":
                poles.append(PoleDatum.at_infinity(field, coeffs))
            else:
                loc = _parse_element(loc_token, field, lineno)
                poles.append(PoleDatum.finite(field, loc, coeffs))
        elif "=" in line:
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if field is not None:
                raise ParseError(lineno, f"{key} must come before the poles")
            try:
                ivalue = int(value)
            except ValueError:
                raise ParseError(lineno, f"bad integer {value!r}") from None
            if key not in ("p", "field_degree"):
                raise ParseError(lineno, f"unknown key {key!r}")
            if key in keys:
                raise ParseError(lineno, f"{key} given twice")
            if key == "field_degree" and ivalue < 1:
                raise ParseError(lineno, "field_degree must be >= 1")
            keys[key] = ivalue
        else:
            raise ParseError(lineno, f"cannot parse line {raw!r}")
    if "p" not in keys:
        raise ParseError(0, "file does not set p")
    if not poles:
        raise ParseError(0, "file defines no poles")
    spec = CurveSpec(field, tuple(poles))
    validate(spec)
    return spec


def parse_spec(path) -> CurveSpec:
    """Parse and validate a curve-spec file."""
    with open(path, encoding="utf-8") as fh:
        return parse_spec_text(fh.read())
