"""A synthetic LSQB-like workload (large-scale subgraph query benchmark).

The paper's second benchmark is LSQB [Mhedhbi et al. 2021]: subgraph-counting
queries over an LDBC-style social network, run at scale factors 0.1, 0.3, 1
and 3 (Section 5.1/5.2).  The defining properties reproduced here:

* a graph-shaped schema (persons, knows edges, interests, tags, cities,
  messages, likes) with many-to-many relationships,
* both cyclic (triangle, diamond-with-chord) and acyclic (star, path) query
  shapes — the paper stresses that cyclicity alone does not decide whether
  WCOJ wins; skew does,
* output sizes (before the final COUNT) much larger than the input, which
  makes output construction a major cost and motivates factorized output
  (Figure 19).

Row counts are scaled down to suit a pure-Python engine; the scale-factor
*ratios* (0.1 : 0.3 : 1 : 3) are preserved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.job import BenchmarkQuery
from repro.workloads.synthetic import zipf_sample

#: The scale factors used by the paper.
PAPER_SCALE_FACTORS = (0.1, 0.3, 1.0, 3.0)

#: Consecutive ``knows`` draws without a new pair after which the edge table
#: is taken as complete.  Wherever every wanted pair is reachable the longest
#: such run is a few hundred draws, so the bound never cuts a table short.
KNOWS_STALE_DRAWS = 20_000


@dataclass
class LsqbWorkload:
    """Generated LSQB-like tables plus the query suite q1-q5."""

    catalog: Catalog
    queries: List[BenchmarkQuery]
    scale_factor: float
    seed: int

    def query(self, name: str) -> BenchmarkQuery:
        """Look up a query by name (``q1`` ... ``q5``)."""
        for query in self.queries:
            if query.name == name:
                return query
        raise KeyError(f"no LSQB query named {name!r}")

    def query_names(self) -> List[str]:
        """Names of all queries in suite order."""
        return [query.name for query in self.queries]


def _rows(base: int, scale_factor: float) -> int:
    return max(4, int(base * scale_factor))


def generate_lsqb_workload(scale_factor: float = 1.0, seed: int = 7) -> LsqbWorkload:
    """Generate the LSQB-like workload at the given scale factor."""
    rng = random.Random(seed)
    catalog = Catalog()

    n_person = _rows(300, scale_factor)
    n_city = max(4, _rows(30, min(scale_factor, 1.0)))
    n_tag = max(8, _rows(80, min(scale_factor, 1.0)))
    n_tagclass = 8
    n_knows = _rows(1400, scale_factor)
    n_interest = _rows(1100, scale_factor)
    n_message = _rows(700, scale_factor)
    n_likes = _rows(1500, scale_factor)

    catalog.register(Table.from_columns("country", {
        "id": list(range(6)),
        "name": [f"country_{i}" for i in range(6)],
    }))
    catalog.register(Table.from_columns("city", {
        "id": list(range(n_city)),
        "country_id": [zipf_sample(rng, 6, 0.6) for _ in range(n_city)],
    }))
    catalog.register(Table.from_columns("tagclass", {
        "id": list(range(n_tagclass)),
        "name": [f"class_{i}" for i in range(n_tagclass)],
    }))
    catalog.register(Table.from_columns("tag", {
        "id": list(range(n_tag)),
        "class_id": [zipf_sample(rng, n_tagclass, 0.7) for _ in range(n_tag)],
    }))
    catalog.register(Table.from_columns("person", {
        "id": list(range(n_person)),
        "city_id": [zipf_sample(rng, n_city, 0.7) for _ in range(n_person)],
    }))

    def person() -> int:
        # Social graphs are heavy-tailed: a few hub persons have many edges.
        return zipf_sample(rng, n_person, 0.8)

    # ``zipf_sample`` never draws the last person, so at tiny scales fewer
    # distinct pairs are reachable than ``n_knows`` asks for: stop once
    # ``KNOWS_STALE_DRAWS`` draws in a row found no new pair.
    knows_pairs = set()
    person1: List[int] = []
    person2: List[int] = []
    stale = 0
    while len(person1) < n_knows and stale < KNOWS_STALE_DRAWS:
        a, b = person(), person()
        if a == b or (a, b) in knows_pairs:
            stale += 1
            continue
        stale = 0
        knows_pairs.add((a, b))
        person1.append(a)
        person2.append(b)
    catalog.register(Table.from_columns("knows", {
        "person1_id": person1,
        "person2_id": person2,
    }))

    catalog.register(Table.from_columns("hasinterest", {
        "person_id": [person() for _ in range(n_interest)],
        "tag_id": [zipf_sample(rng, n_tag, 0.9) for _ in range(n_interest)],
    }))
    catalog.register(Table.from_columns("message", {
        "id": list(range(n_message)),
        "creator_id": [person() for _ in range(n_message)],
        "tag_id": [zipf_sample(rng, n_tag, 0.9) for _ in range(n_message)],
    }))
    catalog.register(Table.from_columns("likes", {
        "person_id": [person() for _ in range(n_likes)],
        "message_id": [zipf_sample(rng, n_message, 0.8) for _ in range(n_likes)],
    }))

    return LsqbWorkload(
        catalog=catalog,
        queries=_lsqb_queries(),
        scale_factor=scale_factor,
        seed=seed,
    )


def _lsqb_queries() -> List[BenchmarkQuery]:
    queries = [
        BenchmarkQuery("q1", """
            SELECT COUNT(*) AS matches
            FROM person AS p, city AS c, hasinterest AS hi, tag AS t, tagclass AS tc
            WHERE p.city_id = c.id AND hi.person_id = p.id
              AND hi.tag_id = t.id AND t.class_id = tc.id
        """, category="acyclic",
           description="interest star around person (acyclic, output >> input)"),
        BenchmarkQuery("q2", """
            SELECT COUNT(*) AS matches
            FROM knows AS k1, knows AS k2, knows AS k3
            WHERE k1.person2_id = k2.person1_id
              AND k2.person2_id = k3.person1_id
              AND k3.person2_id = k1.person1_id
        """, category="cyclic", description="friendship triangle (cyclic)"),
        BenchmarkQuery("q3", """
            SELECT COUNT(*) AS matches
            FROM knows AS k1, knows AS k2, knows AS k3, knows AS k4, knows AS k5
            WHERE k1.person2_id = k2.person1_id
              AND k2.person2_id = k3.person1_id
              AND k3.person2_id = k4.person1_id
              AND k4.person2_id = k1.person1_id
              AND k5.person1_id = k1.person1_id
              AND k5.person2_id = k2.person2_id
        """, category="cyclic",
           description="square with a chord: many overlapping cycles"),
        BenchmarkQuery("q4", """
            SELECT COUNT(*) AS matches
            FROM person AS p, knows AS k, hasinterest AS hi, likes AS l
            WHERE k.person1_id = p.id AND hi.person_id = p.id
              AND l.person_id = p.id
        """, category="acyclic",
           description="star query on person (knows x interests x likes)"),
        BenchmarkQuery("q5", """
            SELECT COUNT(*) AS matches
            FROM person AS p1, knows AS k, person AS p2, hasinterest AS hi,
                 tag AS t
            WHERE k.person1_id = p1.id AND k.person2_id = p2.id
              AND hi.person_id = p2.id AND hi.tag_id = t.id
        """, category="acyclic", description="friend-of-friend interest path"),
    ]
    return [
        BenchmarkQuery(q.name, " ".join(q.sql.split()), q.category, q.description)
        for q in queries
    ]
