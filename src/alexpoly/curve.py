"""Plane curves given by their components and the links of their
singular points.

The data records a distinguished line L as component 0 and the curve C
as the remaining components.  Every singular point of the union carries
the link of the singularity, with branch colours naming the components
the branches belong to; points on L carry marked links whose degree
field holds the total degree of C.
"""

from __future__ import annotations

from .errors import InputError
from .linkpoly import MarkedLink, hat_delta, link_from_json
from .ring import LaurentPoly, cyclotomic_factorization, normalize

#: A univariate polynomial up to units in cyclotomic coordinates: the
#: exponent of each Phi_n dividing it, keyed by n, and the unit-normal
#: remainder free of cyclotomic factors, as ``cyclotomic_factorization``
#: returns them; None stands for zero.
Factored = tuple[dict[int, int], LaurentPoly] | None


class CurveComponent:
    __slots__ = ("name", "degree", "genus")

    def __init__(self, name: str, degree: int, genus: int):
        if not isinstance(degree, int) or degree < 1:
            raise ValueError(f"component {name!r} needs degree >= 1")
        if not isinstance(genus, int) or genus < 0:
            raise ValueError(f"component {name!r} needs genus >= 0")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "genus", genus)

    def __setattr__(self, name, value):
        raise AttributeError("CurveComponent is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.name, self.degree, self.genus)
                == (other.name, other.degree, other.genus))

    def __hash__(self) -> int:
        return hash((self.name, self.degree, self.genus))


class Singularity:
    __slots__ = ("link", "on_L")

    def __init__(self, link: MarkedLink, on_L: bool):
        object.__setattr__(self, "link", link)
        object.__setattr__(self, "on_L", on_L)

    def __setattr__(self, name, value):
        raise AttributeError("Singularity is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.link, self.on_L) == (other.link, other.on_L)

    def __hash__(self) -> int:
        return hash((self.link, self.on_L))

    def branch_count(self, colours: set[int]) -> int:
        """Number of link components whose colour lies in the given set."""
        return sum(1 for c in self.link.colours.values() if c in colours)


class CurveData:
    __slots__ = ("components", "singularities")

    def __init__(self, components: tuple[CurveComponent, ...],
                 singularities: tuple[Singularity, ...]):
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "singularities", singularities)
        if len(self.components) < 2:
            raise InputError("need the line plus at least one curve component",
                             field="components")
        line = self.components[0]
        if line.degree != 1 or line.genus != 0:
            raise InputError("component 0 is the line: degree 1, genus 0",
                             field="components")
        valid = set(range(len(self.components)))
        for idx, sing in enumerate(self.singularities):
            used = set(sing.link.colours.values())
            if not used <= valid:
                raise InputError(
                    f"singularity {idx} colours {sorted(used - valid)} do not "
                    "name components", field="singularities")
            if sing.on_L != (0 in used):
                raise InputError(
                    f"singularity {idx}: a branch of colour 0 is required "
                    "exactly when the point lies on the line",
                    field="singularities")
            if sing.on_L:
                if sing.link.marked is None:
                    raise InputError(f"singularity {idx}: points on the line "
                                     "need a marked link", field="singularities")
                if sing.link.degree != self.degree:
                    raise InputError(
                        f"singularity {idx}: marked link degree "
                        f"{sing.link.degree} != curve degree {self.degree}",
                        field="singularities")
            elif sing.link.marked is not None:
                raise InputError(f"singularity {idx}: marked links belong on "
                                 "the line", field="singularities")

    def __setattr__(self, name, value):
        raise AttributeError("CurveData is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.components, self.singularities)
                == (other.components, other.singularities))

    def __hash__(self) -> int:
        return hash((self.components, self.singularities))

    @property
    def degree(self) -> int:
        """Total degree of C (the line not included)."""
        return sum(c.degree for c in self.components[1:])

    @property
    def n_curve_components(self) -> int:
        return len(self.components) - 1

    def on_line(self) -> list[Singularity]:
        return [s for s in self.singularities if s.on_L]

    def off_line(self) -> list[Singularity]:
        return [s for s in self.singularities if not s.on_L]


def euler_characteristic(curve: CurveData, include_L: bool = True) -> int:
    """Topological Euler characteristic of the chosen subdivisor.

    Normalizations contribute 2 - 2g each; a singular point gluing b
    included branches together loses b - 1.
    """
    idxs = range(len(curve.components)) if include_L else \
        range(1, len(curve.components))
    colours = set(idxs)
    total = sum(2 - 2 * curve.components[i].genus for i in idxs)
    for sing in curve.singularities:
        b = sing.branch_count(colours)
        if b > 1:
            total -= b - 1
    return total


def first_betti(curve: CurveData) -> int:
    """First Betti number 1 + c - chi of C union L with c components,
    which is connected because plane curves always intersect
    (``curve_from_json`` rejects data whose singular points do not join
    every component)."""
    return 1 + len(curve.components) - euler_characteristic(curve)


def local_deltas(curve: CurveData) -> list[LaurentPoly]:
    """Hat invariant of each singular point, in order, with one
    ``hat_delta`` per distinct (braid, marked strand, degree, colours)
    key; nonzero colours are renamed by first base strand.  This is
    sound: ``one_variable_delta`` ignores colours, and the marked path
    depends only on ``colour_order`` and the colour-0 weights."""
    hats: dict[tuple, LaurentPoly] = {}
    out = []
    for link in (sing.link for sing in curve.singularities):
        names: dict[int, int] = {}
        key = (link.braid, link.marked, link.degree,
               tuple(0 if c == 0 else names.setdefault(c, len(names) + 1)
                     for _, c in sorted(link.colours.items())))
        if key not in hats:
            hats[key] = hat_delta(link)
        out.append(hats[key])
    return out


def _counts(items: list) -> dict:
    """How often each item occurs, keyed in order of first occurrence."""
    out = {}
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out


def boundary_delta(curve: CurveData, local: list[LaurentPoly]) -> LaurentPoly:
    """(1 - t)^{b_1(C union L)} times the hat invariants ``local`` of
    all singular points, each distinct one raised to its count: the
    expansion of ``boundary_factors``, up to units."""
    out = LaurentPoly.univariate({0: 1, 1: -1}) ** first_betti(curve)
    for hat, count in _counts(local).items():
        out = out * hat ** count
    return normalize(out)


def boundary_factors(curve: CurveData, local: list[LaurentPoly]) -> Factored:
    """The boundary product of ``boundary_delta`` in cyclotomic
    coordinates, with nothing expanded: Phi_1 has exponent
    b_1(C union L) plus, like every other Phi_n, its exponent in each
    distinct hat of ``local`` times the hat's count, and the remainder is
    the product of the hats' remainders.  Each distinct hat is factored
    once; None when a hat, hence the product, is zero.  A hat past
    ``MAX_DEGREE`` raises InputError."""
    exps = {1: first_betti(curve)}
    remainder = LaurentPoly.one(1)
    for hat, count in _counts(local).items():
        if hat.is_zero:
            return None
        hat_exps, hat_remainder = cyclotomic_factorization(hat)
        for n, e in hat_exps.items():
            exps[n] = exps.get(n, 0) + count * e
        if not hat_remainder.is_unit:
            remainder = remainder * hat_remainder ** count
    return {n: e for n, e in sorted(exps.items()) if e}, normalize(remainder)


class AffineCounts:
    """Bookkeeping constants of the affine curve C minus L."""

    # s_aff: singular points of C off the line; ell: number of components
    # of C; chi_ns: Euler characteristic of the nonsingular affine part
    __slots__ = ("s_aff", "ell", "chi_ns")

    def __init__(self, s_aff: int, ell: int, chi_ns: int):
        object.__setattr__(self, "s_aff", s_aff)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "chi_ns", chi_ns)

    def __setattr__(self, name, value):
        raise AttributeError("AffineCounts is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.s_aff, self.ell, self.chi_ns)
                == (other.s_aff, other.ell, other.chi_ns))

    def __hash__(self) -> int:
        return hash((self.s_aff, self.ell, self.chi_ns))


def affine_counts(curve: CurveData) -> AffineCounts:
    s_aff = len(curve.off_line())
    ell = curve.n_curve_components
    chi = euler_characteristic(curve, include_L=False)
    chi_ns = chi - len(curve.on_line()) - s_aff
    return AffineCounts(s_aff=s_aff, ell=ell, chi_ns=chi_ns)


# ---------------------------------------------------------------------------
# JSON format


def curve_from_json(obj: object) -> CurveData:
    """Decode {"components": [{"name", "degree", "genus"}, ...],
    "singularities": [{"link": {...}, "on_L": bool}, ...]} data."""
    if not isinstance(obj, dict):
        raise InputError("curve must be a JSON object")
    comps_obj = obj.get("components")
    if not isinstance(comps_obj, list) or len(comps_obj) < 2:
        raise InputError("components must list the line and at least one "
                         "curve component", field="components")
    components = []
    for idx, comp in enumerate(comps_obj):
        if not isinstance(comp, dict):
            raise InputError(f"component {idx} must be an object",
                             field="components")
        name = comp.get("name", f"component{idx}")
        degree = comp.get("degree")
        genus = comp.get("genus", 0)
        if not isinstance(name, str):
            raise InputError(f"component {idx} name must be a string",
                             field="components")
        if type(degree) is not int or type(genus) is not int:
            raise InputError(f"component {idx} needs integer degree and genus",
                             field="components")
        try:
            components.append(CurveComponent(name, degree, genus))
        except ValueError as exc:
            raise InputError(str(exc), field="components") from None
    sings_obj = obj.get("singularities", [])
    if not isinstance(sings_obj, list):
        raise InputError("singularities must be a list", field="singularities")
    singularities = []
    for idx, sing in enumerate(sings_obj):
        if not isinstance(sing, dict) or "link" not in sing:
            raise InputError(f"singularity {idx} must be an object with a link",
                             field="singularities")
        if not isinstance(sing["link"], dict):
            raise InputError("link must be a JSON object",
                             field="singularities")
        link = link_from_json(sing["link"])
        on_L = sing.get("on_L", link.marked is not None)
        if not isinstance(on_L, bool):
            raise InputError(f"singularity {idx}: on_L must be a boolean",
                             field="singularities")
        singularities.append(Singularity(link, on_L))
    curve = CurveData(tuple(components), tuple(singularities))
    apart = _apart_from_line(curve)
    if apart:
        names = ", ".join(repr(curve.components[i].name) for i in apart)
        raise InputError(f"no chain of singular points joins {names} to the "
                         "line; plane curves always meet, so the divisor "
                         "must be connected", field="singularities")
    return curve


def _apart_from_line(curve: CurveData) -> list[int]:
    """Indices of the components that no chain of singular points, each
    joining the components its branches lie on, links to the line."""
    joined = {0}
    groups = [set(s.link.colours.values()) for s in curve.singularities]
    grew = True
    while grew:
        grew = False
        for group in groups:
            if group & joined and not group <= joined:
                joined |= group
                grew = True
    return [i for i in range(len(curve.components)) if i not in joined]
