"""Persist-ordering sanitizer: clean schemes, the mutant, zero overhead."""

import pytest

from repro.check.mutant import MUTANT_SCHEME
from repro.check.oracle import REAL_SCHEMES, build_system
from repro.check.sanitizer import (
    DISCIPLINES,
    NULL_CHECKER,
    PersistOrderSanitizer,
    rules_for,
)
from repro.check.trace import expected_state, generate_trace
from repro.crashtest import replay


def _sanitized_run(scheme, trace):
    sanitizer = PersistOrderSanitizer()
    system = build_system(scheme, checker=sanitizer)
    outcome = replay(system, trace)
    return sanitizer, system, outcome


@pytest.mark.parametrize("scheme", REAL_SCHEMES)
def test_real_schemes_sanitize_clean(scheme):
    trace = generate_trace(3, transactions=25, slots=6, cores=4)
    sanitizer, _, _ = _sanitized_run(scheme, trace)
    assert sanitizer.ok, "\n".join(v.render() for v in sanitizer.violations)
    assert sanitizer.transactions_checked == 25


def test_native_declares_no_discipline():
    trace = generate_trace(3, transactions=10, slots=4, cores=4)
    sanitizer, _, _ = _sanitized_run("native", trace)
    assert sanitizer.discipline == "none"
    assert sanitizer.ok


def test_mutant_caught_with_unfenced_write():
    trace = generate_trace(3, transactions=10, slots=4, cores=4)
    sanitizer, _, _ = _sanitized_run(MUTANT_SCHEME, trace)
    assert not sanitizer.ok
    assert {v.rule for v in sanitizer.violations} == {"unfenced-write"}
    # Violation reports carry the scheme, tx, the offending address and a
    # minimized event window.
    violation = sanitizer.violations[0]
    assert violation.scheme == MUTANT_SCHEME
    assert violation.tx_id > 0
    assert violation.addr >= 0
    assert violation.window, "expected a minimized event window"
    assert len(violation.window) <= 20


def test_violation_window_mentions_commit_and_store():
    trace = generate_trace(3, transactions=4, slots=2, cores=2)
    sanitizer, _, _ = _sanitized_run(MUTANT_SCHEME, trace)
    window = "\n".join(sanitizer.violations[0].window)
    assert "store" in window
    assert "commit" in window


@pytest.mark.parametrize("scheme", REAL_SCHEMES)
def test_checker_attach_is_bit_identical(scheme):
    """--check must not perturb results: same bytes, same clocks."""
    trace = generate_trace(11, transactions=20, slots=6, cores=4)
    plain = build_system(scheme)
    replay(plain, trace)
    _, checked, _ = _sanitized_run(scheme, trace)
    assert (
        plain.device.content_fingerprint()
        == checked.device.content_fingerprint()
    )
    assert plain.clocks == checked.clocks
    assert plain.device.stats.writes == checked.device.stats.writes


def test_null_checker_is_inert():
    assert not NULL_CHECKER.active
    # Every hook is a no-op; none may raise.
    NULL_CHECKER.bind_scheme("x", "log-drain")
    NULL_CHECKER.on_tx_begin(1, 0.0)
    NULL_CHECKER.on_store(1, 0x100, 8, 0.0)
    NULL_CHECKER.note_persist(1, "log", 0x100, 64, 0.0, sync=False, port=None)
    NULL_CHECKER.on_drain(None, 0.0, 1)
    NULL_CHECKER.on_tx_committed(1, 0.0)


def test_every_discipline_has_rules():
    for name in DISCIPLINES:
        rules = rules_for(name)
        assert rules is DISCIPLINES[name]
    with pytest.raises(KeyError):
        rules_for("no-such-discipline")


def test_scheme_traits_use_known_disciplines():
    """Docs and enforced contract must agree: every declared durability
    discipline resolves to a rule set."""
    from repro.schemes import ALL_SCHEME_NAMES, scheme_class

    for name in ALL_SCHEME_NAMES:
        assert scheme_class(name).traits.durability in DISCIPLINES, name


def test_readback_matches_model_under_sanitizer():
    trace = generate_trace(5, transactions=20, slots=6, cores=4)
    for scheme in ("hoop", "opt-redo"):
        sanitizer, system, outcome = _sanitized_run(scheme, trace)
        expected = expected_state(trace, outcome.slot_addrs)
        for addr, value in expected.items():
            assert system.load(addr, 8) == value
