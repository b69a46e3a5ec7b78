"""The package's memo tables, with one owner.

Five functions keep results that later calls are likely to ask for
again, each in one table here, and a sixth table holds the polynomials
themselves:

- `FACTOR`: `polynomial.factor`, keyed on (p, mode), and the univariate
  kernel `polynomial.factor_dense`, keyed on (c, mode) for an integer
  coefficient tuple c, which `factor` calls for univariate p and root
  isolation calls directly; a ``finest`` call of either also fills the
  entries of its outputs, and `properties.is_whole` reads its answer
  from the ``squarefree`` entry
- `RESULTANT`: `polynomial.resultant`, keyed on (p, q, v) as given
- `DISCRIMINANT`: `polynomial.discriminant`, keyed on (p, v)
- `CANONICAL`: the isolating boxes (a, b, d), gcd(a, b, d) = 1, of a
  square-free integer tuple, keyed on the tuple
  (`realalg._canonical_intervals`): the square-free parts that root
  isolation bisects, and the irreducible factors whose boxes give
  canonical indices and start canonical copies
- `ROOTS`: `realalg.cached_roots`, keyed on the normal form of p
  (`polynomial.normalize`), which p and its nonzero constant multiples
  share, and the sample's exact coordinates as `RealAlg.key` gives
  them, integers only: ("rat", n, d) for a rational n/d and ("alg",
  definition, canonical index) otherwise, so a lookup hashes no
  Fraction; the zero test of `realalg.sign_at` at several irrational
  coordinates reads it too
- `POLYS`: the one live `MPoly` for each term map, keyed on
  ``frozenset(terms.items())`` of its canonical terms
  (`MPoly._canonical`, which every constructor goes through), so that
  equal polynomials built again are the same object and share the
  views kept on it (hash, text, degrees, sort key, main-variable
  coefficients, normal form, integer form)

Keys are values, never object identities.  Polynomial equality and
hashing stay value-based too: a polynomial dropped from `POLYS`, or
built after `clear`, lives on beside the equal one built next, so
interning saves work but decides nothing.

The scope is the process: whichever call first asks fills an entry, and
every later call shares it.  Each table is a least-recently-used map of
at most `BOUND` entries.  No output depends on what a table holds: a
dropped entry is recomputed equal, and where the choice of a point
depends on the roots that `ROOTS` shares between calls, `realalg` reads
them through canonical copies.  `clear` empties every table.
"""

from __future__ import annotations

from collections import OrderedDict

# Entries per table before the least recently used one is dropped.
BOUND = 4096


class Table:
    """A least-recently-used map of at most `BOUND` entries."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: OrderedDict = OrderedDict()

    def fetch(self, key, compute, *args):
        """The entry for key, marked as just used; on a miss,
        compute(*args), stored under key.  A computation that raises
        stores nothing."""
        entries = self._entries
        try:
            entries.move_to_end(key)
            return entries[key]
        except KeyError:
            pass
        value = entries[key] = compute(*args)
        while len(entries) > BOUND:
            entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)


FACTOR = Table()
RESULTANT = Table()
DISCRIMINANT = Table()
CANONICAL = Table()
ROOTS = Table()
POLYS = Table()

TABLES = {"factor": FACTOR, "resultant": RESULTANT, "discriminant": DISCRIMINANT,
          "canonical": CANONICAL, "roots": ROOTS, "polys": POLYS}


def clear() -> None:
    """Empty every table."""
    for table in TABLES.values():
        table._entries.clear()
