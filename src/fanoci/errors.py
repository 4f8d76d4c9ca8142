"""Exception types shared across the package.

Three failure classes are distinguished because the CLI maps them to
different exit codes: bad input (2), a failed check (1, signalled by return
values rather than exceptions), and exhausted resource budgets (3).
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad degrees, wrong field, ...)."""


class ResourceBudgetError(RuntimeError):
    """A computation refused to start or continue because it would exceed
    a configured size budget (Groebner input size, enumeration size, retries).
    """
