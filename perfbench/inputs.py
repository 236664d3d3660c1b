"""Seeded input drawings for the benchmark workloads.

Every function here takes the freshly imported `oneplane` modules as an
argument, because set-up re-imports the package on every round and times
the import together with generation and serialization.

Workloads (the reasons are also recorded in BENCHMARK.json):

- quad-large: one `random_oneplane` drawing at size 1001 (of the form
  3t - 4, so no degree-2 splits and minimum degree >= 3) and crossing
  density 0.75. The super-linear stages (`find_special_faces` through
  `OriginalGraphView.has_edge`, `audit`, `apply_discharging`) do most of
  the work here. At size 2000 a check took 5-9 s, too few per run to
  measure steadily on a shared host; at 1001 it takes ~1.3 s.
- hub-wheel: a wheel with 6000 spokes. One vertex of degree 6000 makes
  `build_embedding` dominate; there are no crossings, and R8 fires once
  per rim vertex. The seed only rotates the stored start of every
  rotation, which leaves every output byte unchanged.
- corpus-small: the six catalog drawings plus the 200-point grid of the
  acceptance suite (sizes 4-60, densities 0-1), with generator seeds
  offset by 1000 x the workload seed. Fixed per-drawing overhead
  dominates here.
"""

from __future__ import annotations

import random

WORKLOADS = ("quad-large", "hub-wheel", "corpus-small")
QUAD_LARGE_SIZE = 1001
QUAD_LARGE_DENSITY = 0.75
WHEEL_SPOKES = 6000
CORPUS_COUNT = 200
# A generator seed that cannot reach its fill target (GenerationFailed,
# e.g. size 7 at density 0.75 for a few seeds) is replaced by the seed
# this far above it, deterministically, so that every workload seed
# yields a full grid.
RESEED_STRIDE = 1_000_003


def corpus_params(generators, i: int, seed: int):
    """Point i of the acceptance grid, seeds offset by the workload seed.

    Mirrors `corpus_params` of the test suite at workload seed 0; it is
    copied so that edits to the tests cannot change the benchmark.
    """
    size = 4 + (i % 57)
    pool = [0.0, 0.25, 0.5, 0.75]
    if size in (5, 6):
        pool = [0.0, 0.25, 0.5]
    elif size >= 8 and size % 3 == 2:
        pool.append(1.0)
    return generators.GeneratorParams(
        seed=1000 + i + 1000 * seed, size=size, crossing_density=pool[i % len(pool)]
    )


def _generate(generators, params):
    while True:
        try:
            return generators.random_oneplane(params)
        except generators.GenerationFailed:
            params = generators.GeneratorParams(
                params.seed + RESEED_STRIDE, params.size, params.crossing_density
            )


def wheel(oneplanar, spokes: int, seed: int):
    """Wheel with hub 0 and rim 1..spokes; the seed rotates each stored
    rotation to a random starting neighbor."""
    rng = random.Random(seed)
    rotation = {0: tuple(range(1, spokes + 1))}
    for i in range(1, spokes + 1):
        rotation[i] = (0, (i - 2) % spokes + 1, i % spokes + 1)
    for v, r in rotation.items():
        k = rng.randrange(len(r))
        rotation[v] = r[k:] + r[:k]
    return oneplanar.build_drawing(rotation, frozenset())


def drawings(op, workload: str, seed: int) -> list[tuple[str, object]]:
    """(file stem, drawing) for every drawing of one workload pass.

    `op` holds the imported `generators` and `oneplanar` modules.
    """
    if workload == "quad-large":
        params = op.generators.GeneratorParams(seed, QUAD_LARGE_SIZE, QUAD_LARGE_DENSITY)
        return [("quad-large", _generate(op.generators, params))]
    if workload == "hub-wheel":
        return [("hub-wheel", wheel(op.oneplanar, WHEEL_SPOKES, seed))]
    if workload == "corpus-small":
        items = [(f"catalog-{name}", op.generators.catalog(name)) for name in op.generators.catalog_names()]
        for i in range(CORPUS_COUNT):
            items.append((f"grid-{i:03d}", _generate(op.generators, corpus_params(op.generators, i, seed))))
        return items
    raise ValueError(f"unknown workload {workload!r}")
