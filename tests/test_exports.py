"""The package's public names."""

import types

import quantlogic


def test_all_lists_no_modules():
    modules = [name for name in quantlogic.__all__
               if isinstance(getattr(quantlogic, name), types.ModuleType)]
    assert modules == []
    assert {"parse", "evaluate", "Formula", "QuantLogicError"} <= set(quantlogic.__all__)
    assert quantlogic.__all__ == sorted(quantlogic.__all__)


def test_kernels_importable_from_their_modules():
    from quantlogic.pmeans import kahan_sum
    from quantlogic.semantics import add_quantifier

    assert kahan_sum is quantlogic.kahan_sum
    assert add_quantifier is quantlogic.add_quantifier
