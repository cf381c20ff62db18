"""Seeded input generators: the same seed gives identical inputs.

Every workload draws from its own ``numpy`` stream, ``default_rng([seed,
stream])``, so changing one workload's sizes never shifts another's inputs.
The program only ever sees the generated records; the seed stays here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import Scoring
from repro.seq import FastaRecord, GenomePair, biased_dna, genome_pair, mutate, random_dna


@dataclass(frozen=True)
class SearchInputs:
    """A rotating query set and the database every query is scanned against."""

    queries: list[np.ndarray]
    database: list[FastaRecord]
    scoring: Scoring | None  # None = the program's default scoring


#: search-scan: unrelated random sequences, so no bound can prune.  At least
#: 512 sequences so ``--prefilter auto`` engages its bound tiers.
SCAN_SEQUENCES = 600
SCAN_LENGTHS = (200, 600)
SCAN_QUERY_BP = 400
SCAN_QUERIES = 6

#: search-homolog: the planted-homolog shape of
#: ``repro.analysis.bench._pruned_search_workload`` (length spread, AT/GC
#: biased subpopulations, mutated query substrings, Scoring(1, -3, -4)),
#: scaled so that the prefilter-off reference stays cheap.
HOMOLOG_UNIFORM = 1200
HOMOLOG_BIASED = 400  # each of the AT-rich and GC-rich subpopulations
HOMOLOG_LENGTHS = (150, 600)
HOMOLOG_QUERY_BP = 800
HOMOLOG_QUERIES = 4
HOMOLOGS_PER_QUERY = 30
HOMOLOG_SPAN = (350, 500)
HOMOLOG_SCORING = Scoring(match=1, mismatch=-3, gap=-4)

#: search-cli: the same shape, small enough that import, parse, pack and
#: planning are a large share of one ``repro search`` process.
CLI_UNIFORM = 420
CLI_BIASED = 140
CLI_QUERY_BP = 120
CLI_QUERIES = 4
CLI_HOMOLOGS_PER_QUERY = 8
CLI_SPAN = (60, 120)

#: align-pool: a rotating set of planted-region genome pairs (4-6 kbp).
ALIGN_LENGTHS = (4700, 4900, 5100, 5300)
ALIGN_REGIONS = 2
ALIGN_REGION_BP = 200

_STREAMS = {"search-scan": 1, "search-homolog": 2, "search-cli": 3, "align-pool": 4}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def _random_records(rng, prefix: str, n: int, lengths, gc: float | None = None):
    lo, hi = lengths
    out = []
    for i in range(n):
        length = int(rng.integers(lo, hi + 1))
        codes = random_dna(length, rng) if gc is None else biased_dna(length, gc, rng)
        out.append(FastaRecord(f"{prefix}{i:04d}", codes))
    return out


def scan_inputs(seed: int) -> SearchInputs:
    rng = _rng("search-scan", seed)
    database = _random_records(rng, "seq", SCAN_SEQUENCES, SCAN_LENGTHS)
    queries = [random_dna(SCAN_QUERY_BP, rng) for _ in range(SCAN_QUERIES)]
    return SearchInputs(queries, database, None)


def _homolog_db(
    rng, n_uniform, n_biased, query_bp, n_queries, per_query, span, scoring
) -> SearchInputs:
    queries = [random_dna(query_bp, rng) for _ in range(n_queries)]
    database = _random_records(rng, "bg", n_uniform, HOMOLOG_LENGTHS)
    database += _random_records(rng, "at", n_biased, HOMOLOG_LENGTHS, gc=0.20)
    database += _random_records(rng, "gc", n_biased, HOMOLOG_LENGTHS, gc=0.80)
    for q, query in enumerate(queries):
        for h in range(per_query):
            length = int(rng.integers(span[0], span[1] + 1))
            start = int(rng.integers(0, query_bp - length + 1))
            copy = mutate(query[start : start + length], 0.05, rng)
            database.append(FastaRecord(f"q{q}hom{h:02d}", copy))
    return SearchInputs(queries, database, scoring)


def homolog_inputs(seed: int) -> SearchInputs:
    return _homolog_db(
        _rng("search-homolog", seed),
        HOMOLOG_UNIFORM,
        HOMOLOG_BIASED,
        HOMOLOG_QUERY_BP,
        HOMOLOG_QUERIES,
        HOMOLOGS_PER_QUERY,
        HOMOLOG_SPAN,
        HOMOLOG_SCORING,
    )


def cli_inputs(seed: int) -> SearchInputs:
    """Homolog-shaped, under the CLI's default scoring (it has no flag for it)."""
    return _homolog_db(
        _rng("search-cli", seed),
        CLI_UNIFORM,
        CLI_BIASED,
        CLI_QUERY_BP,
        CLI_QUERIES,
        CLI_HOMOLOGS_PER_QUERY,
        CLI_SPAN,
        None,
    )


def align_inputs(seed: int) -> list[GenomePair]:
    rng = _rng("align-pool", seed)
    return [
        genome_pair(
            length,
            n_regions=ALIGN_REGIONS,
            region_length=ALIGN_REGION_BP,
            rng=rng,
        )
        for length in ALIGN_LENGTHS
    ]
