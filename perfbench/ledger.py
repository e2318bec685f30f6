"""Operation accounting shared by the three parts of a run."""

from __future__ import annotations

import traceback


class Ledger:
    """Counts operations attempted and failed.

    An operation fails when it raises, exits with a nonzero code, or its
    output fails a correctness check; the first problem of each failed
    operation is kept for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, what: str, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems[0]}")
        return not problems

    def run(self, what: str, operation, check):
        """Run ``operation()``, then ``check(result)`` for its problems.

        Returns the result, or None when the operation raised (recorded as
        a failure with its traceback, so the run goes on). A check that
        raises, say on a missing artifact, fails the operation too.
        """
        try:
            result = operation()
        except Exception:  # an operation that raises is a failed operation
            self.record(what, [traceback.format_exc(limit=3)])
            return None
        try:
            problems = check(result)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        self.record(what, problems)
        return result
