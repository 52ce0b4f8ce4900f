"""Shared pytest plumbing: surfaces the acceptance criterion results in the
terminal summary so they are visible without disabling output capture, and
provides the shrunken-modulus negative control and the exact form of weight
windows that bit-identity tests compare."""

import dataclasses

from dunkl_appell.functions import BUILTIN_REGISTRY

ACCEPTANCE_LINES = []


def shrink_sinx_modulus(monkeypatch):
    """Register sinx with 0.05 times its true modulus of continuity, so the
    first-modulus bound built from it must fail somewhere."""
    entry = BUILTIN_REGISTRY["sinx"]
    monkeypatch.setitem(
        BUILTIN_REGISTRY,
        "sinx",
        dataclasses.replace(
            entry, analytic_modulus=lambda d: 0.05 * entry.analytic_modulus(d)
        ),
    )


def window_hex(window):
    """A window (lo, upper terms, lower terms, total) with every float as hex."""
    lo, up, down, total = window
    return lo, [v.hex() for v in up.tolist()], [v.hex() for v in down.tolist()], total.hex()


def batches_hex(batches):
    """Every window of a sequence of batches, in order, by ``window_hex``,
    as the one batch of a list.  Batch boundaries are left out: where a
    point's side runs past its first block, ``AppellFamily.windows`` yields
    its run again in the batches of the doubled block, not as one batch."""
    return [[window_hex(w) for batch in batches for w in batch]]


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
