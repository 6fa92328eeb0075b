"""The default TTMc strategy rule, pinned.

``HOOIOptions.ttmc_strategy`` defaults to ``None`` and
:meth:`~repro.core.hooi.HOOIOptions.validate` resolves it in one place:
``"dimtree"`` (the fastest composition measured) unless ``kernel="numba"``
(no compiled dimension-tree kernels) or ``execution="process"`` (the
persistent crew batches per-mode jobs only), which resolve to
``"per-mode"``.  An explicit value is never rewritten, so explicit-option
fingerprints — the serving cache keys — keep their values.
"""

from __future__ import annotations

import pytest

from repro.core import HOOIOptions
from repro.kernels import numba_available

#: (execution, kernel, context) -> the strategy ``None`` resolves to.
DEFAULT_RULE = [
    ("sequential", "numpy", "single-node", "dimtree"),
    ("thread", "numpy", "single-node", "dimtree"),
    ("process", "numpy", "single-node", "per-mode"),
    ("sequential", "numpy", "distributed", "dimtree"),
    ("thread", "numpy", "distributed", "dimtree"),
    ("sequential", "numba", "single-node", "per-mode"),
    ("thread", "numba", "single-node", "per-mode"),
    ("process", "numba", "single-node", "per-mode"),
    ("sequential", "numba", "distributed", "per-mode"),
]

#: ``options_fingerprint`` of explicit options, as computed before the
#: default changed: explicit spellings keep their cache identity.
EXPLICIT_FINGERPRINTS = [
    (
        dict(ttmc_strategy="per-mode"),
        "06c3b4551bdc97e58495fd768c563c9336cb54c1793b39f816a83d9831ac12fc",
    ),
    (
        dict(ttmc_strategy="dimtree"),
        "3b5b023290f1ff144337ea6c45d68fbedadd212165e9004b5f6c9bd7df0b6242",
    ),
    (
        dict(ttmc_strategy="per-mode", execution="process", num_workers=2),
        "60dc3dd54a49f07bbc163df34d0c51dac335239b7e0f433dd10847dba737100e",
    ),
    (
        dict(ttmc_strategy="dimtree", tensor_format="csf", trsvd_method="gram"),
        "f06baa2dac1c5d4e517aada76c08bcd895fb98895ec0311bdec56b5353238b9a",
    ),
]


@pytest.mark.parametrize("execution,kernel,context,expected", DEFAULT_RULE)
def test_default_rule(execution, kernel, context, expected):
    if kernel == "numba" and not numba_available():
        pytest.skip("numba is not installed")
    options = HOOIOptions(execution=execution, kernel=kernel)
    assert options.ttmc_strategy is None
    assert options.validate(context=context).ttmc_strategy == expected
    # Explicit values are never rewritten (numba × dimtree is the one
    # composition hole; its rejection is pinned in test_compiled_kernels).
    explicit = ["per-mode"] if kernel == "numba" else ["per-mode", "dimtree"]
    for strategy in explicit:
        options = HOOIOptions(
            execution=execution, kernel=kernel, ttmc_strategy=strategy
        )
        assert options.validate(context=context).ttmc_strategy == strategy


def test_default_fingerprint_is_dimtree():
    assert (
        HOOIOptions().validate().options_fingerprint()
        == HOOIOptions(ttmc_strategy="dimtree").validate().options_fingerprint()
    )


@pytest.mark.parametrize("kwargs,fingerprint", EXPLICIT_FINGERPRINTS)
def test_explicit_fingerprints_unchanged(kwargs, fingerprint):
    assert HOOIOptions(**kwargs).options_fingerprint() == fingerprint
    assert HOOIOptions(**kwargs).validate().options_fingerprint() == fingerprint
