"""Exact arithmetic in graph products of finite groups.

Vertex groups are modeled as cyclic groups of the declared order, so a
syllable is a vertex together with an exponent in [1, order).  A word is
reduced when no sequence of the three elementary moves shortens it:

* cancellation  - drop an identity syllable;
* amalgamation  - merge two syllables at the same vertex whenever every
                  syllable between them sits at an adjacent vertex;
* shuffling     - swap consecutive syllables at adjacent vertices.

Every group element has a unique reduced word up to shuffling.  The stored
normal form is the canonical representative of that shuffle class: at each
position the vertex is the least (in declaration order) among all syllables
that can be shuffled there.  Two elements are equal iff their normal forms
are equal, and the syllable count of the normal form is the word-metric
length of the element.

This canonical representative is the lexicographic normal form of a trace
(Anisimov and Knuth; Diekert and Rozenberg, *The Book of Traces*, 1995).
One routine maintains it: `_push` multiplies a canonical syllable list by
one syllable and leaves it canonical, in time linear in the list.  It
inserts the new syllable after the last syllable that does not commute with
it, before the first later one with a larger vertex; amalgamation keeps the
vertex and cancellation removes a syllable that commutes with everything
after it, so neither reorders the rest.  `multiply` pushes the syllables of
its right operand onto its left one; `invert` and the non-canonical half of
`head` and `strip_suffix` push their syllables into an empty list.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import GraphMismatchError

__all__ = [
    "Syllable",
    "Word",
    "NormalForm",
    "WordParseError",
    "parse_word",
    "format_word",
    "identity",
    "generator",
    "reduce_word",
    "multiply",
    "invert",
    "parabolic_membership",
    "head",
    "strip_suffix",
    "project_to_parabolic",
]


class WordParseError(ValueError):
    pass


class Syllable(NamedTuple):
    vertex: str
    exponent: int


class Word:
    """An unreduced product of syllables over a fixed graph.  Vertices are
    validated to be the graph's and exponents to lie in [0, order), both
    raising WordParseError; zero exponents are legal input and vanish on
    reduction."""

    __slots__ = ("graph", "syllables")

    def __init__(self, graph, syllables):
        sylls = []
        for s in syllables:
            v, e = s
            i = graph._index.get(v)
            if i is None:
                raise WordParseError(f"unknown vertex {v!r}")
            k = graph._orders_ix[i]
            if not isinstance(e, int) or not 0 <= e < k:
                raise WordParseError(
                    f"syllable {v}^{e}: exponent outside [0, {k})")
            sylls.append(Syllable(v, e))
        self.graph = graph
        self.syllables = tuple(sylls)

    def __repr__(self):
        return f"Word({format_word(self)!r})"

    def __eq__(self, other):
        return (isinstance(other, Word) and self.graph == other.graph
                and self.syllables == other.syllables)

    def __hash__(self):
        return hash((self.graph, self.syllables))


def parse_word(graph, text):
    """Word syntax: whitespace-separated tokens ``v`` or ``v^k``, k written
    in ASCII digits; ``e`` stands for the empty word and may appear anywhere
    as a no-op, so a syllable at a vertex named ``e`` is written ``e^k``,
    also for k = 1."""
    sylls = []
    for tok in text.split():
        if tok == "e":
            continue
        if "^" in tok:
            v, _, exp = tok.partition("^")
            # int() would also take a sign, underscores and non-ASCII digits
            if not (exp.isascii() and exp.isdigit()):
                raise WordParseError(f"bad exponent in token {tok!r}")
            e = int(exp)
        else:
            v, e = tok, 1
        sylls.append((v, e))
    return Word(graph, sylls)


def format_word(w):
    """Render a Word or NormalForm in CLI syntax (``e`` for the empty word).
    A syllable at a vertex named ``e`` is written ``e^k``, also for k = 1,
    so that `parse_word` reads the text back as the same word."""
    sylls = w.syllables
    if not sylls:
        return "e"
    return " ".join(v if e == 1 and v != "e" else f"{v}^{e}" for v, e in sylls)


# ---------------------------------------------------------------------------
# the engine proper: syllables as (vertex index, exponent) pairs


def _push(g, out, s):
    """Multiply the canonical syllable list `out` on the right by one
    non-identity syllable `s = (v, e)`, keeping `out` canonical.

    The backward scan passes the syllables that commute with v and stops at
    i, the last one that does not.  A syllable at v met on the way absorbs s
    (amalgamation) or, if the exponents cancel, is deleted.  Otherwise s is
    inserted at the first position j > i whose vertex is larger than v, or
    at the end: s commutes with everything after i, the syllables it lands
    behind have smaller vertices and the one it lands in front of a larger
    one, which is where the least-vertex-first order puts it.  Amalgamation
    keeps the vertex, and the deleted syllable commutes with everything
    after it, so neither reorders the rest, and a deletion cannot expose a
    new amalgamation.  The tuple `s` itself is stored, so normal forms built
    from other normal forms share their syllables."""
    v = s[0]
    vbit = 1 << v
    adj = g._adj_bits
    i = len(out) - 1
    j = i + 1
    while i >= 0:
        u, f = out[i]
        if u == v:
            ne = (f + s[1]) % g._orders_ix[v]
            if ne:
                out[i] = (u, ne)
            else:
                del out[i]
            return
        if not adj[u] & vbit:
            break
        if u > v:
            j = i
        i -= 1
    out.insert(j, s)


class NormalForm:
    """Canonical reduced word for a group element.  Immutable and hashable;
    equality means equality of group elements over equal graphs.  The hash
    is computed on the first `__hash__` call and kept in `_hash`, so a
    normal form that is never hashed (a ball vertex, which the ball indexes
    by its syllables) never pays for it."""

    __slots__ = ("graph", "sylls", "_hash")

    def __init__(self, graph, sylls):
        self.graph = graph
        self.sylls = sylls  # tuple of (vertex index, exponent)

    @property
    def length(self):
        return len(self.sylls)

    def __len__(self):
        return len(self.sylls)

    @property
    def syllables(self):
        names = self.graph.vertices
        return tuple(Syllable(names[v], e) for v, e in self.sylls)

    @property
    def word(self):
        return Word(self.graph, self.syllables)

    @property
    def support(self):
        names = self.graph.vertices
        return frozenset(names[v] for v, _ in self.sylls)

    @property
    def support_mask(self):
        m = 0
        for v, _ in self.sylls:
            m |= 1 << v
        return m

    def __mul__(self, other):
        return multiply(self, other)

    def __invert__(self):
        return invert(self)

    def __eq__(self, other):
        return (isinstance(other, NormalForm) and self.sylls == other.sylls
                and self.graph == other.graph)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash((self.graph._hash, self.sylls))
            return h

    def __reduce__(self):
        # rebuild through the constructor, so the hash is this process's
        return NormalForm, (self.graph, self.sylls)

    def __repr__(self):
        return f"<{format_word(self)}>"

    def __str__(self):
        return format_word(self)


def _make_nf(g, sylls):
    """Normal form of a reduced syllable list in any order (a reversal, or
    the upper part of a split), built by pushing its syllables in turn."""
    out = []
    for s in sylls:
        _push(g, out, s)
    return NormalForm(g, tuple(out))


def identity(graph):
    return NormalForm(graph, ())


def generator(graph, v, exponent=1):
    """The group element of a single syllable."""
    return reduce_word(Word(graph, [(v, exponent)]))


def reduce_word(w):
    """Canonical normal form of the element represented by w.  Idempotent:
    reducing the word of a normal form returns the same normal form.

    >>> from .graphs import parse_graph
    >>> sq4 = parse_graph("graph SQ4\\nvertex a\\nvertex b\\nvertex c\\nvertex d\\n"
    ...     "edge a b\\nedge b c\\nedge c d\\nedge d a")
    >>> str(reduce_word(parse_word(sq4, "b a")))
    'a b'
    >>> str(reduce_word(parse_word(sq4, "a a")))
    'e'
    >>> reduce_word(parse_word(sq4, "a c a")).length
    3
    """
    g = w.graph
    index = g._index
    out = []
    for v, e in w.syllables:
        if e:
            _push(g, out, (index[v], e))
    return NormalForm(g, tuple(out))


def multiply(x, y):
    g = x.graph
    if y.graph is not g and y.graph != g:
        raise GraphMismatchError("operands over different graphs")
    out = list(x.sylls)
    for s in y.sylls:
        _push(g, out, s)
    return NormalForm(g, tuple(out))


def invert(x):
    g = x.graph
    ords = g._orders_ix
    rev = [(v, ords[v] - e) for v, e in reversed(x.sylls)]
    return _make_nf(g, rev)


def parabolic_membership(x, s):
    """x lies in the parabolic subgroup spanned by s iff the support of its
    reduced word is contained in s."""
    if x.graph != s.graph:
        raise GraphMismatchError("operands over different graphs")
    return x.support_mask & ~s.mask == 0


def _split_head(g, sylls, allowed_mask):
    """Split a normal form's syllables into the maximal prefix supported in
    `allowed_mask` and the rest: a syllable belongs to the prefix iff its
    vertex is allowed and no earlier syllable outside the prefix fails to
    commute with it.  The prefix is closed under going back along
    non-commuting pairs, so as a subsequence of a canonical list it is
    already canonical; the rest is not in general."""
    adj = g._adj_bits
    hd, rest = [], []
    outside = 0  # vertices of the syllables kept out so far
    for s in sylls:
        v = s[0]
        if (allowed_mask >> v) & 1 and not outside & ~adj[v]:
            hd.append(s)
        else:
            outside |= 1 << v
            rest.append(s)
    return hd, rest


def head(x, s):
    """Split x = head * tail where head is the unique maximal prefix (up to
    shuffling) supported in s: no syllable of the tail with vertex in s can
    be shuffled to the tail's front.  Lengths add: |x| = |head| + |tail|."""
    if x.graph != s.graph:
        raise GraphMismatchError("operands over different graphs")
    g = x.graph
    hd, tl = _split_head(g, x.sylls, s.mask)
    return NormalForm(g, tuple(hd)), _make_nf(g, tl)


def _last_syllables(g, sylls, allowed_mask):
    """Map vertex -> exponent of the last letters of a normal form at the
    vertices of `allowed_mask`: the syllables that commute with every later
    syllable, so can be shuffled to the end.  These are exactly the
    syllables that `_push` reaches, so a syllable at vertex v amalgamates or
    cancels iff v is a key (for v in the mask).  At most one last letter per
    vertex, since a later syllable at the same vertex does not commute with
    an earlier one.

    The backward scan keeps `cand`, the allowed vertices that commute with
    every syllable passed so far (each one clears its own vertex and its
    non-neighbours), and stops once `cand` is empty, as `_split_suffix`
    does: no earlier syllable can be an allowed last letter."""
    adj = g._adj_bits
    out = {}
    cand = allowed_mask
    k = len(sylls)
    while cand and k:
        k -= 1
        v, f = sylls[k]
        if cand >> v & 1:
            out[v] = f
        cand &= adj[v]
    return out


def _split_suffix(g, sylls, allowed_mask):
    """Mirror of _split_head: (rest, maximal suffix supported in the mask),
    the rest as a tuple and the suffix as a list.  Here the rest is the part
    closed under going back, so it is the canonical one.

    The backward scan keeps `cand`, the allowed vertices that commute with
    every syllable kept out so far (each one kept out clears its own vertex
    and its non-neighbours), and stops once `cand` is empty: no earlier
    syllable can join the suffix, so all of them belong to the rest as they
    stand.  A coset representative of a long word thus costs the few
    syllables at its end."""
    adj = g._adj_bits
    suf, rest = [], []
    cand = allowed_mask
    k = len(sylls)
    while cand and k:
        k -= 1
        s = sylls[k]
        v = s[0]
        if cand >> v & 1:
            suf.append(s)
        else:
            cand &= adj[v]
            rest.append(s)
    return (*sylls[:k], *reversed(rest)), suf[::-1]


def _coset_prefix(g, sylls, allowed_mask):
    """The rest half of `_split_suffix` alone, by the same backward scan,
    with no suffix list built: `tuple(sylls)` when no syllable joins the
    suffix.  This is the coset-representative rule of `_coset_rep` and of
    each carrier of `geometry.separating_hyperplanes`."""
    adj = g._adj_bits
    rest = []
    moved = False
    cand = allowed_mask
    k = len(sylls)
    while cand and k:
        k -= 1
        s = sylls[k]
        v = s[0]
        if cand >> v & 1:
            moved = True
        else:
            cand &= adj[v]
            rest.append(s)
    return (*sylls[:k], *reversed(rest)) if moved else tuple(sylls)


def _coset_rep(x, allowed_mask):
    """The minimal-length representative of the coset x<s>, for s given by
    its vertex mask: the prefix half of strip_suffix alone."""
    return NormalForm(x.graph, _coset_prefix(x.graph, x.sylls, allowed_mask))


def strip_suffix(x, s):
    """Split x = prefix * suffix with the suffix the maximal one supported in
    s.  The prefix is the minimal-length representative of the coset x<s>."""
    if x.graph != s.graph:
        raise GraphMismatchError("operands over different graphs")
    g = x.graph
    pre, suf = _split_suffix(g, x.sylls, s.mask)
    return NormalForm(g, pre), _make_nf(g, suf)


def project_to_parabolic(x, g_elt, s):
    """Gate of x in the coset g<s>: the unique member of the coset closest to
    x, namely g * head(g^-1 x, s)."""
    if x.graph != s.graph:
        raise GraphMismatchError("operands over different graphs")
    hd, _ = head(multiply(invert(g_elt), x), s)
    return multiply(g_elt, hd)
