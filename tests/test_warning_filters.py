"""The suite's warning filters (pyproject.toml): package warnings are errors.

A warning is attributed to the module whose code the warning's stack level
points at, so a numpy or scipy warning raised on a ``bmckde`` call counts as
the package's.
"""

import warnings

import pytest


@pytest.mark.parametrize("category", [RuntimeWarning, DeprecationWarning, FutureWarning])
def test_a_warning_from_a_package_module_fails_the_test(category):
    with pytest.raises(category):
        warnings.warn_explicit("throwaway", category, "estimators.py", 1, module="bmckde.estimators")


@pytest.mark.parametrize("category", [RuntimeWarning, DeprecationWarning, FutureWarning])
def test_a_warning_from_another_module_is_only_recorded(category):
    with warnings.catch_warnings(record=True) as caught:
        warnings.warn_explicit("throwaway", category, "other.py", 1, module="numpy.other")
    assert [w.category for w in caught] == [category]
