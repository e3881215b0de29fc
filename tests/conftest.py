import pytest
from hypothesis import settings

from progvc import heisenberg as hg

# Exact big-integer comparisons and word enumeration make individual
# examples slow enough to trip the default 200ms deadline on loaded CI
# machines; correctness here never depends on wall-clock time. A failing
# example prints its @reproduce_failure blob, since CI keeps no example
# database to replay it from.
settings.register_profile("suite", deadline=None, print_blob=True)
settings.load_profile("suite")


@pytest.fixture
def verify_faults():
    """Negative controls for ``heisenberg.verify_cells``, one per side of
    its check: (plant, nmax, cap, flagged), where ``plant(mp)`` installs
    the fault through a MonkeyPatch and ``flagged`` lists the cells the
    check must report as (n1, n2, mismatches)."""
    central_range, budget_frontier = hg._central_range, hg._budget_frontier

    def formula(mp):
        # The formula claims (0, 0, 1) lies in P(1, 1).
        def faulty(n1, n2, a, b):
            return (0, 1) if (n1, n2, a, b) == (1, 1, 0, 0) else central_range(n1, n2, a, b)

        mp.setattr(hg, "_central_range", faulty)

    def enumeration(mp):
        # The enumeration misses (7, 7, 49), which P(7, 7) alone holds.
        def faulty(n1, n2):
            found = budget_frontier(n1, n2)
            del found[(7, 7, 49)]
            return found

        mp.setattr(hg, "_budget_frontier", faulty)

    return [
        (formula, 1, hg.DEFAULT_ENUM_CAP, [(1, 1, [[0, 0, 1]])]),
        (enumeration, 7, 14, [(7, 7, [[7, 7, 49]])]),
    ]
