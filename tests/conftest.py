import signal

import pytest

from fgfp import builtin_problems, solve

# Seconds a test may run before it fails; a loop that never ends, such as
# a stalled walk in hypotheses._min_sum_constants, then fails its test
# instead of hanging the suite.
TEST_TIME_LIMIT = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test when it runs past TEST_TIME_LIMIT seconds.  Needs
    SIGALRM (POSIX); without it tests run unbounded."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its time limit of {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def corpus():
    return {e.id: e for e in builtin_problems()}


@pytest.fixture(scope="session")
def corpus_runs(corpus):
    """(trace, result) per corpus entry at the default tolerance."""
    return {eid: solve(e.problem) for eid, e in corpus.items()}
