"""The repository's pytest settings let a failing property test report like any
other: the suite goes on to the tests after it.

Hypothesis reports a failing example through `hypothesis.extra._patching`,
which imports `libcst` and, through it, `mypy_extensions.TypedDict`. That
import warns (DeprecationWarning), and `filterwarnings = ["error"]` alone turned
it into an exception inside a pytest hook, so the run stopped at INTERNALERROR.
"""


def test_failing_property_test_does_not_stop_the_run(failing_property_run):
    # the child pytest run of conftest.FAILING_AND_PASSING, started when collection ended
    returncode, output = failing_property_run
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output[-2000:]
    assert returncode == 1
