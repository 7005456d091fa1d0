"""The library names and CLI flags the benchmark in bench/ relies on.

A rename in the library that the benchmark reaches by name, or a CLI
flag it passes that the parser no longer accepts, fails here instead of
making a benchmark run incorrect.
"""
import sys
from pathlib import Path

import pytest

import concentra
import concentra.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds_and_cli_argv_parses(name, tmp_path, monkeypatch):
    prologue, decks = workloads.build(name, 0, 5, str(tmp_path))
    jobs = prologue + [job for deck in decks for job in deck]
    assert jobs
    seen = []
    monkeypatch.setattr(concentra.cli, "main", lambda argv: seen.append(argv) or 0)
    for job in jobs:
        if job.cli_out is not None:
            job.run()
    assert len(seen) == sum(job.cli_out is not None for job in jobs)
    parser = concentra.cli.build_parser()
    for argv in seen:
        parser.parse_args(argv)  # argparse exits on an unknown or missing flag


def _bindings():
    """Every attribute of the modules and classes the tracer rebinds."""
    m = concentra.measures
    owners = tracing.MODULES + (concentra, m.RealLine, m.FiniteMetricSpace, m.ProductSpace,
                                m.DiscreteMeasure, m.GaussianMeasure, concentra.coupling._LabelLine)
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_names_exist_and_uninstall_restores():
    names = set(tracing.COUNTERS) | tracing.PRIVATE_SPANS | tracing.CHECKERS
    names |= {"transport._COLGEN_THRESHOLD", "transport.linprog", "cli._FORMULAS", "coupling._LabelLine"}
    # the family builders timed under certify.family.self_s
    names |= {"certify.lipschitz_family", "certify.tilt_family", "certify.default_lsi_family"}
    for dotted in sorted(names):
        module, attr = dotted.split(".")
        assert hasattr(getattr(concentra, module), attr), dotted
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert concentra.certify.check_gc is not before[(concentra.certify, "check_gc")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_certify_best_constant_and_lsi_jobs_pass_their_checks(tmp_path):
    """The certify semantics the benchmark relies on: its best_constant
    jobs (coin flip and 3-point line, on decks 3 and 11) and its LSI grid
    jobs pass the benchmark's own checks."""
    _, decks = workloads.build("certify", 0, 12 * workloads.WORKLOADS["certify"].deck_s, str(tmp_path))
    assert len(decks) >= 4
    jobs = [job for deck in decks for job in deck if job.kind in ("best_constant", "lsi_grid")]
    assert sum(job.kind == "best_constant" for job in jobs) == 2
    for job in jobs:
        job.check(job.run())


def test_chains_verify_ou_jobs_pass_their_checks(tmp_path):
    """verify-ou on the chains workload's own inputs (seed 0, the
    benchmark's 30 s run, 8 decks) passes the benchmark's check on every
    deck: F_n's law is exact, so no job may report a falsification. A
    3-standard-error band on the MGF of F_n rejected 6 of these 8 jobs."""
    _, decks = workloads.build("chains", 0, 30, str(tmp_path))
    jobs = [job for deck in decks for job in deck if job.kind == "verify_ou"]
    assert len(jobs) == 8
    for job in jobs:
        job.check(job.run())
