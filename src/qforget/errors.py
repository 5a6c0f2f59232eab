"""Error types shared across the package: one class per CLI exit code, and
one for a broken precondition.

Where a check's input comes from decides its class. A bad config or
command line is a ConfigError (exit 2), a non-finite training loss a
DivergenceError (3), a failed pretraining gate a GateError (4), a file or
model input that is malformed, corrupt or mismatched an InputError (5), and
a run directory that another process holds a BusyError (6). A check that no
outside input reaches raises ContractError: its failure is a bug, which the
CLI does not map.
"""


class ConfigError(ValueError):
    """A configuration or command line violates its invariants."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


class InputError(ValueError):
    """A file or model input is malformed, corrupt or mismatched."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries last-known diagnostics."""

    def __init__(self, message: str, step: int, last_losses: list):
        super().__init__(message)
        self.step = step
        self.last_losses = last_losses


class GateError(RuntimeError):
    """A pretraining acceptance gate did not pass."""


class BusyError(RuntimeError):
    """Another process holds the run directory's lock."""
