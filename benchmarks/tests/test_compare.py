"""Verdicts of the comparison command."""

import compare

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_a_clear_gain_is_improved():
    change = [v * 0.8 for v in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1) == (1.0, "improved")


def test_too_few_pairs_are_never_improved():
    assert compare.verdict(PARENT[:4], [5.0] * 4, "lower", 0.1)[1] == "unchanged"


def test_a_loss_beyond_the_bound_is_worse():
    assert compare.verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1)[1] == "worse"
    assert compare.verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1)[1] == "worse"


def test_noise_within_the_bound_is_unchanged():
    assert compare.verdict(PARENT, list(reversed(PARENT)), "lower", 0.1)[1] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [10.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0, 10.0, 6.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[1] == "unresolved"


def test_per_layer_metrics_without_bound():
    assert compare.verdict(PARENT, [v * 1.5 for v in PARENT], "lower", None)[1] == "worse"
    assert compare.verdict(PARENT, PARENT, "lower", None)[1] == "unchanged"
