"""Seeded inputs for every workload.

Everything a run feeds the program under test is derived here from the
``--seed`` argument: the program order, the one-procedure edits and
their salts, the Zipf-ranked variant pool and the Poisson arrival
schedule.  The program under test only ever receives the generated
MiniC sources and a :class:`~repro.CompilerOptions` value.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import O2, O3_SW, PAPER_CONFIGS
from repro.benchsuite import load_benchmarks
from repro.engine.frontend import split_chunks

#: the paper's six configurations, in Table 1/2 column order
CONFIGS: Tuple[str, ...] = tuple(PAPER_CONFIGS)

#: the service workload's two option sets
SERVICE_OPTIONS = {"O3_SW": O3_SW, "O2": O2}

#: one-procedure edits per program in the service's warm pool
EDITS_PER_PROGRAM = 4

#: Zipf exponent of the pooled request popularity
ZIPF_S = 1.1

#: share of service requests that are fresh, never-seen edits
FRESH_SHARE = 0.2

#: open-loop arrival rates (requests per second) of the service phases.
#: A cached request costs about 10 ms of one core, and this 2-vCPU VM's
#: speed varies by up to 2.4x, so the nominal rate stays under half the
#: service's capacity even on a slow host, and the peak rate reaches the
#: knee only there.
NOMINAL_RPS = 20.0
PEAK_RPS = 60.0

#: requests drawn per second of the closed loop, more than any host serves
CLOSED_DRAW_RPS = 300.0

#: the service phases in order: name, rate, share of the run, closed?
#: Open-loop latency on this VM swings with the host's speed (queueing
#: amplifies it), and so does a concurrent closed loop's (its requests
#: wait on each other and on the interpreter lock), so the end-to-end
#: metrics come from a closed loop of one client, which gets half the
#: run; the open phases keep the due-time latencies, generator lateness
#: and backlog check in the per-phase rows
PHASES = (
    ("nominal", NOMINAL_RPS, 0.25, False),
    ("peak", PEAK_RPS, 0.25, False),
    ("closed", CLOSED_DRAW_RPS, 0.5, True),
)


def suite() -> Dict[str, str]:
    """Program name -> MiniC source, in the paper's Table 1 order."""
    return {name: b.source for name, b in load_benchmarks().items()}


def program_order(seed: int) -> List[str]:
    """The 13 suite programs in a seeded order (each run visits every
    program; only the order changes with the seed)."""
    names = list(suite())
    random.Random(f"order:{seed}").shuffle(names)
    return names


def edit_procedure(source: str, proc: int, salt: int) -> str:
    """Insert ``print <salt>;`` at the top of procedure ``proc`` (index
    into the source's ``func`` chunks, modulo their count).

    The statement survives every optimisation level, so the edited
    procedure's IR and plan key change and the engine must re-plan it
    (and any ancestor whose view of its summary changes); every other
    chunk stays byte-identical.
    """
    split = split_chunks(source)
    if split is None:
        raise ValueError("benchmark source cannot be split into chunks")
    chunks = split[1]
    chunk = chunks[proc % len(chunks)]
    brace = chunk.text.index("{") + 1
    edited = chunk.text[:brace] + f" print {salt};" + chunk.text[brace:]
    return source.replace(chunk.text, edited, 1)


@dataclass(frozen=True)
class Variant:
    """One compile request's input: an edited suite program under one of
    the service's option sets."""

    program: str
    proc: int
    salt: int
    options: str          # key of SERVICE_OPTIONS

    @property
    def key(self) -> str:
        return f"{self.program}/p{self.proc}/s{self.salt}/{self.options}"

    def source(self, sources: Dict[str, str]) -> str:
        return edit_procedure(sources[self.program], self.proc, self.salt)


def service_pool(seed: int) -> List[Variant]:
    """The warm pool, most popular first: 13 programs x
    ``EDITS_PER_PROGRAM`` seeded edits x both option sets (104 variants).

    Popularity ranks interleave the programs in suite order (rank *r*
    belongs to program *r* mod 13), so every seed offers every program
    at the same popularity; the seed picks each edit's procedure and
    salt.  With Zipf ranks a random program-to-rank map would let the
    seed alone decide which program takes a fifth of the traffic.
    """
    rng = random.Random(f"pool:{seed}")
    programs = list(suite())
    edits = {program: [] for program in programs}
    salt = 1000
    for program in programs:
        for _ in range(EDITS_PER_PROGRAM):
            salt += 1 + rng.randrange(97)
            edits[program].append((rng.randrange(1 << 16), salt))
    return [
        Variant(program, *edits[program][e], opt)
        for e in range(EDITS_PER_PROGRAM)
        for opt in SERVICE_OPTIONS
        for program in programs
    ]


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due (seconds from the phase
    start) and what it asks for."""

    due: float
    variant: Variant
    pooled: bool


def arrivals(
    seed: int, phase: str, rate: float, seconds: float,
    pool: List[Variant], fresh_salts: set,
) -> List[Arrival]:
    """A Poisson arrival schedule of exactly ``round(rate * seconds)``
    requests over ``seconds``: sorted uniform instants, which is the
    Poisson process conditioned on its count (so the offered rate is the
    same on every seed).  Pooled requests draw Zipf(``ZIPF_S``) ranks
    from ``pool``; fresh ones are new edits whose salts are recorded in
    ``fresh_salts`` so no two requests of a run share one.
    """
    rng = random.Random(f"arrivals:{seed}:{phase}")
    count = max(1, round(rate * seconds))
    gaps = [rng.expovariate(1.0) for _ in range(count + 1)]
    scale = seconds / sum(gaps)
    cum_weights = list(itertools.accumulate(
        1.0 / (rank ** ZIPF_S) for rank in range(1, len(pool) + 1)
    ))
    # fresh edits visit the programs round-robin in a seeded order
    programs = list(suite())
    rng.shuffle(programs)
    out = []
    t = 0.0
    for gap in gaps[:count]:
        t += gap * scale
        if rng.random() >= FRESH_SHARE:
            variant = rng.choices(pool, cum_weights=cum_weights)[0]
            out.append(Arrival(t, variant, True))
            continue
        salt = rng.randrange(10 ** 6, 10 ** 9)
        while salt in fresh_salts:
            salt = rng.randrange(10 ** 6, 10 ** 9)
        fresh_salts.add(salt)
        program = programs[len(fresh_salts) % len(programs)]
        variant = Variant(
            program, rng.randrange(1 << 16), salt,
            rng.choice(list(SERVICE_OPTIONS)),
        )
        out.append(Arrival(t, variant, False))
    return out


@dataclass(frozen=True)
class Phase:
    name: str
    rate: float
    seconds: float
    arrivals: Tuple[Arrival, ...]
    #: closed loop: one client takes the arrivals in order, ignoring
    #: their due times
    closed: bool = False


def service_phases(
    seed: int, seconds: float, pool: List[Variant]
) -> List[Phase]:
    """The service phases of PHASES sharing ``seconds``; fresh-edit
    salts never repeat across them."""
    fresh: set = set()
    out = []
    for name, rate, share, closed in PHASES:
        length = seconds * share
        out.append(Phase(name, rate, length, tuple(
            arrivals(seed, name, rate, length, pool, fresh)
        ), closed))
    return out
