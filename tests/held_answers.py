"""Canonical summaries of the answers that held data must not change.

``xpext_summary`` and ``five_term_summary`` list every report field of
``xpext_enumerate`` and ``five_term_report`` in a fixed order, and
``teichmuller_classes`` the H^3 class of the Teichmuller cocycle of each
tier-1 rep, with a digest of the cocycle tables themselves.  ``digest``
hashes a summary.  ``held_answers.json`` records the digests and classes
computed before the derived data moved behind ``modlinalg.held``;
regenerate it with

    PYTHONPATH=src:tests python tests/held_answers.py > tests/held_answers.json

only when an answer is meant to change.
"""

import hashlib
import json

from teichmuller.crossed_pairs import five_term_report, xpext_enumerate
from teichmuller.gmod_cohomology import cohomology
from teichmuller.normal_algebras import teichmuller_cocycle
from test_class_stacks import AMBIENTS, teichmuller_reps

SEEDS = (0, 1, 2)


def xpext_summary(amb, seed: int) -> list:
    report = xpext_enumerate(amb, seed=seed)
    return [report.keys,
            [[(cp.ae.f, cp.psi, cp.lifts) for cp in bucket] for bucket in report.buckets],
            report.delta_classes, report.zero_bucket, sorted(report.j_images.items()),
            sorted(report.h2q_image_in_h2g), sorted(report.h3q_classes.items()),
            sorted(report.verdicts.items()), sorted(report.witnesses.items())]


def five_term_summary(amb, seed: int) -> list:
    return sorted(five_term_report(amb, seed=seed).items())


def digest(summary) -> str:
    return hashlib.sha256(repr(summary).encode()).hexdigest()


def teichmuller_classes(seed: int) -> list:
    """[the class of each rep's cocycle, ..., the digest of all their tables]."""
    classes, tables = [], []
    for rep in teichmuller_reps():
        w = teichmuller_cocycle(rep, seed=seed)
        classes.append(list(cohomology(rep.Q, w.unit_mod.module, 3).class_of(w.cocycle)))
        tables.append(w.cocycle.table.tolist())
    return classes + [digest(tables)]


def record() -> dict:
    return {
        "xpext": {f"{label}:{seed}": digest(xpext_summary(make(), seed))
                  for label, make in AMBIENTS.items() for seed in SEEDS},
        "five_term": {f"{label}:{seed}": digest(five_term_summary(make(), seed))
                      for label, make in AMBIENTS.items() for seed in SEEDS},
        "teichmuller": {str(seed): teichmuller_classes(seed) for seed in SEEDS},
    }


if __name__ == "__main__":
    print(json.dumps(record(), indent=1, sort_keys=True))
