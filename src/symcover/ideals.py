"""Monomial ideals attached to graphs: cover ideals, symbolic powers,
polarization, and the linear-quotients test.

Both graph ideals come from one rule.  The symbolic power J(G)^(k)
polarizes to the cover ideal J(G_k) of the k-fold vertex duplication (Seyed
Fakhari, Proc. AMS 2018), so its generators are read off the maximal
independent sets of G_k, with the shadows x_v.1 ... x_v.a merged back into
x_v^a.  G_k is built as rows, with the shadows of each vertex as a mask
(see duplication.py).  The cover ideal J(G) is the case k = 1, where each
generator is the product over a minimal vertex cover of G, the complement of
a maximal independent set.

Those generators are minimal as read, so ``symbolic_power`` builds them
straight from the cover masks and skips the divisibility scan.  Copy x.p+1
of a vertex has no neighbor that copy x.p lacks, N(x.p+1) ⊆ N(x.p), so a
maximal independent set that holds x.p holds x.p+1 too: every minimal cover
meets each vertex's block of shadows in a lower segment x.1 ... x.e, which
is x^e polarized.  Distinct minimal covers are incomparable, and on lower
segments containment is divisibility, so no generator divides another.  The
``MonomialIdeal`` constructor minimalizes what it is given, because parsed
text and ``depolarize`` may hand it multiples.

Monomials are exponent maps over named variables; ideals always store their
unique minimal generating set, canonically sorted by (degree, then
lexicographic preference for earlier ambient variables).  The zero-generator
"whole ring" marker stands in for the degenerate ideal generated by 1, which
only arises from edgeless graphs.

Inside an ideal each generator g is also held as a *slot mask*, its
polarization written as an int.  Variable v owns a block of d_v bits, where
the depth d_v is its largest exponent among the minimal generators, and
earlier variables own higher blocks.  Slot v.t is the t-th bit of v's block
from the top, so bit (v, t) is set iff g_v >= t, and ``polarize`` keeps
every mask and only names the slots.  Within one degree a larger mask is a
lexicographically larger exponent vector, which is the canonical order.
Write G, G', C for the masks of g, g', c.  For any exponents:

* g divides c iff ``G & ~C == 0``;
* ``G & ~C`` is the mask of the colon g : c, and its popcount is the degree;
* g : c is the single variable x_v iff ``G & ~C`` is the one bit (v, c_v + 1);
* x_v divides g' : c iff bit (v, c_v + 1) is set in ``G' & ~C``.

So the linear-quotients test runs on integers alone: O(m) operations per
position of an order of m generators, O(m^2) per order.

The search for an order decides one degree block at a time.  Swapping two
adjacent generators whose degrees go down keeps linear quotients
(Jahan-Zheng, J. Combin. Theory Ser. A 2010), so only degree-nondecreasing
orders need trying, and the first accepted order of a search over all
orders is already one of them.  The colon test depends only on the set
already placed, which is the same after every valid order of a block, so
each block is ordered once, after the lower degrees, and a block with no
valid order answers "no".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Mapping, Sequence

from . import _bitgraph
from .duplication import MAX_MULTIPLICITY, duplicated_edge_rows, shadow_blocks, split_shadow
from .graphs import Graph


class IdealError(ValueError):
    """Raised for malformed monomials/ideals or mismatched operations."""


# ---------------------------------------------------------------------------
# monomials

@dataclass(frozen=True)
class Monomial:
    """A monomial as a sorted tuple of (variable, exponent >= 1) pairs."""

    exps: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for var, e in self.exps:
            if e < 1:
                raise IdealError(f"exponent of {var!r} must be >= 1, got {e}")
        for (u, _), (v, _) in zip(self.exps, self.exps[1:]):
            if u >= v:
                raise IdealError(f"variable {v!r} repeated in monomial" if u == v
                                 else "monomial exponents must be sorted; use Monomial.of()")

    @classmethod
    def of(cls, exponents: Mapping[str, int] | Iterable[tuple[str, int]]) -> Monomial:
        items = exponents.items() if isinstance(exponents, Mapping) else exponents
        merged: dict[str, int] = {}
        for var, e in items:
            if e < 0:
                raise IdealError(f"exponent of {var!r} must be >= 0, got {e}")
            if e:
                merged[var] = merged.get(var, 0) + e
        return cls(tuple(sorted(merged.items())))

    @classmethod
    def one(cls) -> Monomial:
        return cls(())

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.exps)

    def render(self, var_order: Sequence[str] | None = None) -> str:
        if not self.exps:
            return "1"
        if var_order is None:
            ordered = self.exps
        else:
            rank = {v: i for i, v in enumerate(var_order)}
            ordered = tuple(sorted(self.exps, key=lambda item: rank.get(item[0], len(rank))))
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in ordered)

    def __repr__(self) -> str:
        return f"Monomial({self.render()})"


def parse_monomial(text: str) -> Monomial:
    text = text.strip()
    if text == "1":
        return Monomial.one()
    exps: list[tuple[str, int]] = []
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise IdealError(f"empty factor in monomial {text!r}")
        if "^" in factor:
            var, _, raw = factor.partition("^")
            try:
                e = int(raw)
            except ValueError:
                raise IdealError(f"bad exponent in factor {factor!r}") from None
            if e > MAX_MULTIPLICITY:
                raise IdealError(f"exponent in factor {factor!r} is above {MAX_MULTIPLICITY}")
        else:
            var, e = factor, 1
        if not var:
            raise IdealError(f"missing variable name in factor {factor!r}")
        exps.append((var, e))
    return Monomial.of(exps)


# ---------------------------------------------------------------------------
# ideals

def _slot_tops(depths: Sequence[int]) -> list[int]:
    """The bit just above each variable's slot block, given each one's depth:
    slot t is bit ``top - t``, and x^e sets ``((1 << e) - 1) << (top - e)``."""
    tops = []
    top = sum(depths)
    for d in depths:
        tops.append(top)
        top -= d
    return tops


def _slot_masks(variables: Sequence[str],
                gens: Iterable[Monomial]) -> tuple[list[int], list[tuple[Monomial, int]]]:
    """Each variable's depth over ``gens``, and every generator with its slot mask."""
    rank = {v: i for i, v in enumerate(variables)}
    depths = [0] * len(rank)
    for g in gens:
        for v, e in g.exps:
            i = rank.get(v)
            if i is None:
                raise IdealError(f"generator uses {v!r} outside the ambient variables")
            depths[i] = max(depths[i], e)
    tops = _slot_tops(depths)
    return depths, [(g, sum(((1 << e) - 1) << (tops[rank[v]] - e) for v, e in g.exps))
                    for g in gens]


def _minimalize(masks: Iterable[tuple[Monomial, int]]) -> list[tuple[Monomial, int]]:
    """The generators no other one divides.

    A divisor has a smaller degree, so scanning by degree meets it before
    its multiples.
    """
    kept: list[tuple[Monomial, int]] = []
    for g, mask in sorted(masks, key=lambda item: item[1].bit_count()):
        if all(k & ~mask for _, k in kept):  # no kept generator divides g
            kept.append((g, mask))
    return kept


class MonomialIdeal:
    """A monomial ideal held by its minimal generating set and their slot masks."""

    __slots__ = ("_variables", "_depths", "_generators", "_masks", "_whole")

    def __init__(self, variables: Sequence[str], generators: Iterable[Monomial] = ()):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise IdealError("ambient variables must be distinct")
        depths, masks = _slot_masks(variables, set(generators))
        masks = _minimalize(masks)
        covered = 0
        for _, mask in masks:
            if not mask:
                raise IdealError("a unit generator is not allowed; use the whole-ring marker")
            covered |= mask
        if covered != (1 << sum(depths)) - 1:
            # a dropped multiple alone held some variable's largest exponent
            depths, masks = _slot_masks(variables, [g for g, _ in masks])
        self._install(variables, depths, masks)

    def _install(self, variables: tuple[str, ...], depths: Sequence[int],
                 masks: Iterable[tuple[Monomial, int]]) -> None:
        """Hold minimal generators, given with their slot masks over the layout
        of ``depths``, in the canonical order: degree, then larger mask first."""
        self._variables = variables
        self._depths = tuple(depths)
        self._masks = dict(sorted(masks, key=lambda item: (item[1].bit_count(), -item[1])))
        self._generators = tuple(self._masks)
        self._whole = False

    @classmethod
    def whole(cls, variables: Sequence[str]) -> MonomialIdeal:
        ideal = cls(variables)
        ideal._whole = True
        return ideal

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def generators(self) -> tuple[Monomial, ...]:
        return self._generators

    @property
    def is_whole_ring(self) -> bool:
        return self._whole

    def __eq__(self, other: object) -> bool:
        # ambient rings may legitimately differ (e.g. discarded isolated
        # variables); equality means the same minimal generating set
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self._whole == other._whole and set(self._generators) == set(other._generators)

    def __hash__(self) -> int:
        return hash((self._whole, frozenset(self._generators)))

    def __repr__(self) -> str:
        if self._whole:
            return "MonomialIdeal(<whole ring>)"
        inside = ", ".join(g.render(self._variables) for g in self._generators)
        return f"MonomialIdeal({inside})"


# ---------------------------------------------------------------------------
# cover ideals and symbolic powers

def cover_ideal(graph: Graph) -> MonomialIdeal:
    """Ideal generated by the products over the minimal vertex covers.

    This is J(G)^(1), as G is its own G_1.  An edgeless graph has the empty
    cover, so the result degenerates to the whole ring; the marker keeps
    that case explicit.
    """
    return symbolic_power(graph, 1)


def symbolic_power(graph: Graph, k: int) -> MonomialIdeal:
    """Minimal generators of the k-th symbolic power of the cover ideal.

    J(G)^(k) polarizes to J(G_k) (Seyed Fakhari, Proc. AMS 2018), so each
    maximal independent set I of G_k gives one generator: the complement
    of I is a minimal vertex cover of G_k, and x_i enters with the number
    of its shadows in that cover as exponent.

    Each generator is read straight off the cover mask, with no
    minimalization (see the module docstring): x_i's exponent e is the
    popcount of its shadows in the cover, and its slots the top e bits of
    its block.  Every vertex on an edge has a cover holding all k of its
    shadows (the complement of a maximal independent set through a
    neighbor's first copy), so its depth is k.
    """
    if k < 1:
        raise IdealError(f"symbolic power exponent must be >= 1, got {k}")
    names = graph.vertex_names
    if graph.edge_count == 0:
        return MonomialIdeal.whole(names)
    t = (k,) * graph.edge_count
    rows = duplicated_edge_rows(len(names), graph.edge_indices, t)
    blocks = shadow_blocks(len(names), graph.edge_indices, t)
    depths = [block.bit_count() for block in blocks]
    # vertices on an edge in name order, as Monomial pairs are sorted, each
    # with the slot masks of x^0 ... x^k
    by_name = sorted((name, block, [((1 << e) - 1) << (top - e) for e in range(d + 1)])
                     for name, block, d, top in zip(names, blocks, depths, _slot_tops(depths))
                     if d)
    full = (1 << len(rows)) - 1
    masks = []
    for independent in _bitgraph.maximal_independent_sets(rows, full):
        cover = full ^ independent
        exps = []
        slots = 0
        for name, block, table in by_name:
            e = (block & cover).bit_count()
            if e:
                exps.append((name, e))
                slots |= table[e]
        masks.append((Monomial(tuple(exps)), slots))
    ideal = MonomialIdeal.__new__(MonomialIdeal)
    ideal._install(names, depths, masks)
    return ideal


# ---------------------------------------------------------------------------
# polarization

def polarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Replace each power x^a by the product of slot variables x.1 ... x.a.

    The ambient ring takes the slots x.1 ... x.d of each variable x of depth
    d, in variable order.  Squarefree ideals are fixed up to the renaming
    x -> x.1.  Slot x.t keeps its bit (see the module docstring), so every
    generator keeps its mask and its place in the order.
    """
    if ideal.is_whole_ring:
        return ideal
    slots = {v: [(f"{v}.{t}", 1) for t in range(1, d + 1)]
             for v, d in zip(ideal.variables, ideal._depths)}
    variables = tuple(name for names in slots.values() for name, _ in names)
    gens = [Monomial(tuple(sorted(pair for v, e in g.exps for pair in slots[v][:e])))
            for g in ideal.generators]
    polarized = MonomialIdeal.__new__(MonomialIdeal)
    polarized._install(variables, (1,) * len(variables), zip(gens, ideal._masks.values()))
    return polarized


def depolarize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Undo one polarization layer: merge each slot x.j (see ``split_shadow``) into x.

    Each ambient variable is split once, and every generator is merged
    through that map.  The input may be any ideal, whose merged generators
    can divide or equal one another, so the result goes through the
    minimalizing constructor.
    """
    if ideal.is_whole_ring:
        return ideal
    base: dict[str, str] = {}
    for v in ideal.variables:
        shadow = split_shadow(v)
        base[v] = shadow[0] if shadow else v
    gens = [Monomial.of([(base[v], e) for v, e in g.exps]) for g in ideal.generators]
    return MonomialIdeal(dict.fromkeys(base.values()), gens)


# ---------------------------------------------------------------------------
# linear quotients

def _linear_colons(chosen: Sequence[int], candidate: int) -> bool:
    """True iff (chosen) : candidate is generated by variables, on slot masks.

    The colon is generated by the colons g : candidate, ``G & ~C``.  It is
    variable-generated iff every such colon holds a bit of ``singles``, the
    union of the colons that are one bit (single variables).  A zero colon,
    where the candidate is a multiple of a chosen generator, holds none.
    """
    rest = ~candidate
    colons = [g & rest for g in chosen]
    singles = 0
    for d in colons:
        if not d & (d - 1):
            singles |= d
    for d in colons:
        if not d & singles:
            return False
    return True


def is_linear_quotients_order(ideal: MonomialIdeal, order: Sequence[Monomial]) -> bool:
    """Validate that an ordering of the minimal generators has linear quotients."""
    if ideal.is_whole_ring:
        raise IdealError("the whole-ring marker has no generator ordering")
    masks = ideal._masks
    if len(order) != len(masks) or set(order) != masks.keys():
        raise IdealError("order must be a permutation of the minimal generators")
    seq = [masks[g] for g in order]
    return all(_linear_colons(seq[:i], seq[i]) for i in range(1, len(seq)))


def has_linear_quotients(ideal: MonomialIdeal) -> list[Monomial] | None:
    """Search for a linear-quotients ordering of the minimal generators.

    Returns the first accepting order in the canonical candidate order
    (degree-nondecreasing, then preference for earlier variables), or None
    when no ordering works.

    The search decides one degree block at a time.  If an order has linear
    quotients, so does the order with an adjacent degree descent swapped
    (Jahan-Zheng, J. Combin. Theory Ser. A 2010), so an ideal with linear
    quotients has a degree-nondecreasing order, and only those are tried.
    The canonical order puts each degree's generators together, so each
    block, in increasing degree, is ordered after every lower-degree
    generator is placed.  Whether a candidate can be appended depends only
    on the set already placed, and after a block that set is the same
    whichever valid order the block took: a block that fails after one
    valid order of the earlier blocks fails after all of them, so no block
    is retried.

    The result is the order an exhaustive search over all orders finds
    first.  Suppose that order had a degree descent.  Moving its first
    misplaced lowest-degree generator forward, swap by swap, keeps linear
    quotients and gives an order with a smaller index at the first changed
    position, which that search would have found first.  So its order is
    degree-nondecreasing, and it is the first such order, which is what
    the blockwise search returns.
    """
    if ideal.is_whole_ring or not ideal.generators:
        raise IdealError("linear quotients needs at least one generator")
    order: list[Monomial] = []
    placed: list[int] = []  # slot masks of the generators placed so far
    for _, block in groupby(ideal._masks.items(), key=lambda item: item[1].bit_count()):
        gens, masks = zip(*block)
        found = _order_block(placed, masks)
        if found is None:
            return None
        order.extend(gens[i] for i in found)
    return order


def _order_block(placed: list[int], block: Sequence[int]) -> list[int] | None:
    """The first order of ``block`` in which every mask passes the colon test
    against ``placed`` and the block masks before it, as block positions.

    On success the block's masks are appended to ``placed`` in that order;
    on failure ``placed`` is left as it was.  Dead subsets of the block are
    memoized as bitmasks of positions, and the depth-first search keeps its
    own stack, so blocks with thousands of generators stay within Python's
    recursion limit.
    """
    q = len(block)
    dead: set[int] = set()
    prefix: list[int] = []  # block positions placed so far
    chosen = 0              # prefix as a bitmask of positions
    cursor = [0]            # next candidate to try, per position
    while cursor:
        i = cursor[-1]
        while i < q and (chosen >> i & 1 or not _linear_colons(placed, block[i])):
            i += 1
        if i == q:  # no extension of this prefix works
            dead.add(chosen)
            cursor.pop()
            if prefix:
                chosen ^= 1 << prefix.pop()
                placed.pop()
            continue
        cursor[-1] = i + 1
        if len(prefix) + 1 == q:
            placed.append(block[i])
            return prefix + [i]
        if (chosen | 1 << i) in dead:
            continue
        prefix.append(i)
        placed.append(block[i])
        chosen |= 1 << i
        cursor.append(0)
    return None


# ---------------------------------------------------------------------------
# text format

def _check_variable_name(name: str) -> None:
    """Reject a variable name that the text format would not read back.

    The format splits the variables line on whitespace, skips a line that
    starts with '#', reads '*' and '^' as monomial syntax, and reads a
    generator "1" as the unit.  Writer and reader share this one rule.
    """
    if (name.split() != [name] or name.startswith("#") or "*" in name or "^" in name
            or name == "1"):
        raise IdealError(f"variable name {name!r} must be free of whitespace, '*' and '^', "
                         "must not start with '#' and must not be '1'")


def render_ideal_text(ideal: MonomialIdeal) -> str:
    for name in ideal.variables:
        _check_variable_name(name)
    lines = ["variables: " + " ".join(ideal.variables)]
    if ideal.is_whole_ring:
        lines.append("whole-ring")
    else:
        lines.extend(g.render(ideal.variables) for g in ideal.generators)
    return "\n".join(lines) + "\n"


def _natural_key(name: str) -> tuple:
    parts: list[object] = []
    for chunk in re.split(r"(\d+)", name):
        parts.append((1, int(chunk)) if chunk.isdigit() else (0, chunk))
    return tuple(parts)


def parse_ideal_text(text: str) -> MonomialIdeal:
    variables: list[str] | None = None
    gens: list[Monomial] = []
    whole = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("variables:"):
            if variables is not None:
                raise IdealError(f"line {lineno}: repeated variables header")
            variables = line[len("variables:"):].split()
        elif line == "whole-ring":
            whole = True
        else:
            gens.append(parse_monomial(line))
    if variables is None:
        seen: set[str] = set()
        for g in gens:
            seen.update(g.variables)
        variables = sorted(seen, key=_natural_key)
    for name in variables:
        _check_variable_name(name)
    if whole:
        if gens:
            raise IdealError("a whole-ring ideal cannot also list generators")
        return MonomialIdeal.whole(variables)
    return MonomialIdeal(variables, gens)


def load_ideal(path: str) -> MonomialIdeal:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IdealError(f"ideal file {path!r} is not UTF-8: {exc}") from None
    return parse_ideal_text(text)
