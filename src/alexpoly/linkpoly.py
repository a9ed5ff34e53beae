"""Polynomial invariants of closed braids with coloured components.

A link here is a braid closure whose components carry integer colours.
Colour 0 is reserved for the distinguished line component; marking that
component enables the hat variant, which weights its meridians by -d
for the stored degree d while every other meridian gets weight 1.

Three invariants are computed from the closure presentation:

* multivariable: one variable per colour, the marked colour first,
* one-variable: every meridian is weighted 1,
* hat: the weighted one-variable invariant described above, checked
  against substituting the weights into the multivariable one.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

from .braid import (
    BraidWord,
    braid_from_json,
    closure_presentation,
    full_twist,
    strand_components,
)
from .errors import ComputationError, InputError
from .fox import alexander_polynomial
from .group import AbelMap, Presentation
from .ring import (MAX_VARIABLES, LaurentPoly, equal_up_to_units, normalize,
                   poly_to_str)


class MarkedLink:
    __slots__ = ("braid", "colours", "marked", "degree", "components")

    def __init__(self, braid: BraidWord, colours: Mapping[int, int],
                 marked: int | None = None, degree: int | None = None, *,
                 components: list[tuple[int, ...]] | None = None):
        # components: strand sets of the closure's components, from the
        # braid unless the caller has already computed them; left out of
        # == and hash.  colours is kept as a read-only copy, so that the
        # link hashes over its items
        if components is None:
            components = strand_components(braid)
        keys = {min(c) for c in components}
        if set(colours) != keys:
            raise ValueError(
                f"colours must be keyed by the component base strands {sorted(keys)}")
        for k, v in colours.items():
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"colour of component {k} must be a "
                                 "nonnegative integer")
        zero_coloured = [k for k, v in colours.items() if v == 0]
        if len(zero_coloured) > 1:
            raise ValueError("at most one component may have colour 0")
        if all(v == 0 for v in colours.values()):
            raise ValueError("at least one component needs a nonzero colour")
        if marked is not None:
            if marked not in colours:
                raise ValueError(f"marked component {marked} does not exist")
            if colours[marked] != 0:
                raise ValueError("the marked component must have colour 0")
            if not isinstance(degree, int) or degree < 1:
                raise ValueError("a marked link needs a degree >= 1")
        object.__setattr__(self, "braid", braid)
        object.__setattr__(self, "colours", MappingProxyType(dict(colours)))
        object.__setattr__(self, "marked", marked)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("MarkedLink is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.braid, self.colours, self.marked, self.degree)
                == (other.braid, other.colours, other.marked, other.degree))

    def __hash__(self) -> int:
        return hash((self.braid, frozenset(self.colours.items()), self.marked,
                     self.degree))

    def component_of_strand(self) -> dict[int, int]:
        """strand -> base strand of its component."""
        out = {}
        for comp in self.components:
            base = min(comp)
            for s in comp:
                out[s] = base
        return out

    def colour_order(self) -> list[int]:
        """Distinct colours in variable order: colour 0 first, then by
        the least strand carrying each colour."""
        anchor: dict[int, int] = {}
        for comp in self.components:
            colour = self.colours[min(comp)]
            anchor.setdefault(colour, min(comp))
        return sorted(anchor, key=lambda c: (c != 0, anchor[c]))

    def n_colours(self) -> int:
        # the colours are keyed by exactly the component base strands
        return len(set(self.colours.values()))


def _colour_phi(link: MarkedLink) -> AbelMap:
    order = link.colour_order()
    index = {c: i for i, c in enumerate(order)}
    base_of = link.component_of_strand()
    images = tuple(
        tuple(1 if index[link.colours[base_of[s]]] == r else 0
              for r in range(len(order)))
        for s in range(link.braid.strands))
    return AbelMap(len(order), images)


def multivariable_delta(link: MarkedLink,
                        pres: Presentation | None = None) -> LaurentPoly:
    """Invariant with one variable per colour; needs at least two colours,
    and at most ``MAX_VARIABLES``, checked before the colour map (strands
    times colours) is built.

    ``pres`` is the closure presentation of ``link.braid`` when the caller
    has already built it.
    """
    n = link.n_colours()
    if n < 2:
        raise InputError("the multivariable invariant needs at least 2 colours",
                         field="colours")
    if n > MAX_VARIABLES:
        raise InputError(f"the link has {n} colours; the multivariable "
                         f"invariant takes at most {MAX_VARIABLES}",
                         field="colours")
    if pres is None:
        pres = closure_presentation(link.braid)
    return alexander_polynomial(pres, _colour_phi(link))


def one_variable_delta(link: MarkedLink) -> LaurentPoly:
    phi = AbelMap.constant_one(link.braid.strands)
    return alexander_polynomial(closure_presentation(link.braid), phi)


def hat_delta(link: MarkedLink) -> LaurentPoly:
    """Weighted invariant of a marked link.

    Computed directly from the weighted Fox matrix and, independently,
    by substituting the weights into the multivariable invariant times
    (1 - t).  The two must agree up to units.  The multivariable one
    comes first, so that too many colours are refused before any Fox
    matrix is built.
    """
    if link.marked is None:
        return one_variable_delta(link)
    pres = closure_presentation(link.braid)
    multi = multivariable_delta(link, pres)

    d = link.degree
    base_of = link.component_of_strand()
    images = tuple((-d,) if base_of[s] == link.marked else (1,)
                   for s in range(link.braid.strands))
    direct = alexander_polynomial(pres, AbelMap(1, images))
    weights = tuple(-d if c == 0 else 1 for c in link.colour_order())
    shifted = normalize(multi.substitute(weights) * LaurentPoly.univariate({0: 1, 1: -1}))
    if not equal_up_to_units(direct, shifted):
        raise ComputationError(
            "weighted invariant disagrees with the substituted multivariable "
            f"one: {poly_to_str(direct)} vs {poly_to_str(shifted)}")
    return direct


# ---------------------------------------------------------------------------
# stock links


def torus_link(strands: int) -> MarkedLink:
    """Closure of the full twist: strands pairwise-linked circles."""
    return MarkedLink(full_twist(strands), {s: 1 + s for s in range(strands)})


def marked_torus_link(strands: int, degree: int) -> MarkedLink:
    """Full-twist closure with strand 0 as the marked line branch."""
    return MarkedLink(full_twist(strands), {s: s for s in range(strands)},
                      marked=0, degree=degree)


# ---------------------------------------------------------------------------
# JSON format


def link_from_json(obj: object, degree: int | None = None) -> MarkedLink:
    """Decode {"braid": {...}, "colours": {"1": 1, ...},
    "marked": 1 | null, "degree": d | null} link data.

    Strands are numbered from 1 in the JSON (matching braid letters);
    each component is keyed by its smallest strand, written in plain
    decimal ("2", never "02" or " 2").  A ``degree`` given here takes
    the place of the file's, once the file's own fields are checked.
    """
    if not isinstance(obj, dict):
        raise InputError("link must be a JSON object")
    if not isinstance(obj.get("braid"), dict):
        raise InputError("braid must be a JSON object", field="braid")
    braid = braid_from_json(obj["braid"])
    colours_obj = obj.get("colours")
    if not isinstance(colours_obj, dict):
        raise InputError("colours must map base strands to colour numbers",
                         field="colours")
    colours = {}
    for key, value in colours_obj.items():
        try:
            strand = int(key)
        except (TypeError, ValueError):
            strand = None
        # one spelling per strand, so that no key silently overrides another
        if strand is None or key != str(strand):
            raise InputError(f"colour key {key!r} is not a strand number "
                             "in plain decimal", field="colours")
        if not 1 <= strand <= braid.strands:
            raise InputError(f"strand {strand} is out of range 1.."
                             f"{braid.strands}", field="colours")
        if type(value) is not int:
            raise InputError(f"colour of strand {key} must be an integer",
                             field="colours")
        colours[strand - 1] = value
    comps = strand_components(braid)
    expected = sorted(min(c) + 1 for c in comps)
    if sorted(k + 1 for k in colours) != expected:
        raise InputError("colours must be keyed by the component base "
                         f"strands {expected}", field="colours")
    marked = obj.get("marked")
    if marked is not None:
        if type(marked) is not int or marked - 1 not in colours:
            raise InputError("marked must be the base strand of a component "
                             "or null", field="marked")
        marked -= 1
    file_degree = obj.get("degree")
    if file_degree is not None and type(file_degree) is not int:
        raise InputError("degree must be an integer or null", field="degree")
    if marked is not None and (file_degree is None or file_degree < 1):
        raise InputError("a marked link needs a degree >= 1", field="degree")
    if degree is None:
        degree = file_degree
    try:
        return MarkedLink(braid, colours, marked=marked, degree=degree,
                          components=comps)
    except ValueError as exc:
        raise InputError(str(exc), field="colours") from None
