"""Lifecycle replay determinism: same config, same outcomes.

Every lifecycle decision — deadline misses, cancels, retries, breaker
trips, shed/reject admissions — is driven by the simulated clock and
the submission sequence, never wall time.  So for any soak
configuration the *set of lifecycle outcomes per submission index* must
be identical across runs, whatever order the waiting threads step the
run queue in.  This sweep drives that invariant across the configuration
space with hypothesis.

Frame verification is off (`verify_frames=False`): bit-identity is the
soak's own gate (``tests/test_serving_soak.py``); here only the
lifecycle id sets and the ledger's conservation invariant are asserted,
which keeps each example to two small soak runs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.policy import CHAOS_PROFILES
from repro.serving import SoakConfig, run_soak

SF = 0.002

lifecycle_configs = st.fixed_dictionaries(
    {
        "chaos": st.sampled_from(CHAOS_PROFILES),
        "retries": st.integers(min_value=0, max_value=2),
        "cancel_every": st.sampled_from((0, 2, 3)),
        "deadline": st.sampled_from((None, 1e-6, 1e3)),
        "shed_threshold": st.sampled_from((1.0, 0.5)),
    }
)


def _lifecycle_of(kwargs: dict):
    report = run_soak(
        SoakConfig(
            scale_factor=SF,
            n_queries=6,
            verify_frames=False,
            **kwargs,
        )
    )
    assert report.reconciliation_errors() == []
    # The fate each client saw is its journal's terminal state, and a
    # client sees a retry exactly when its completed journal holds one.
    seen = {
        index: kind
        for kind, indices in report.lifecycle.items()
        if kind != "retried"
        for index in indices
    }
    assert [seen[i] for i in range(len(report.journals))] == [
        journal.terminal for journal in report.journals
    ]
    assert report.lifecycle["retried"] == tuple(
        index
        for index, journal in enumerate(report.journals)
        if journal.retries and journal.terminal == "completed"
    )
    return report.lifecycle


@given(config=lifecycle_configs)
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_lifecycle_outcomes_replay_exactly(config):
    assert _lifecycle_of(config) == _lifecycle_of(config)


def test_all_submissions_accounted_for_across_profiles():
    # Denser, example-free spot check: every submission index lands in
    # exactly one lifecycle bucket whatever the chaos profile.
    for profile in CHAOS_PROFILES:
        lifecycle = _lifecycle_of(
            {"chaos": profile, "retries": 1, "cancel_every": 3}
        )
        settled = sorted(
            index
            for kind, indices in lifecycle.items()
            if kind != "retried"  # retried overlaps its terminal bucket
            for index in indices
        )
        assert settled == list(range(6)), profile
