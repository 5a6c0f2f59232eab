"""Error types shared across the package: one class per CLI exit code, and
one for a broken precondition.

Where a check's input comes from decides its class. A bad config or
command line is a ConfigError (exit 2), a non-finite training loss a
DivergenceError (3), a failed pretraining gate a GateError (4), a file or
model input that is malformed, corrupt or mismatched an InputError (5), and
a run directory that another process holds a BusyError (6). Each carries
its exit code and stderr prefix. A check that no outside input reaches
raises ContractError: its failure is a bug, which the CLI does not map.
"""


class ExitError(Exception):
    """An error the CLI maps: it prints stderr_line() and exits `exit_code`."""

    def stderr_line(self) -> str:
        return f"{self.prefix}: {self}"


class ConfigError(ExitError, ValueError):
    """A configuration or command line violates its invariants."""
    exit_code, prefix = 2, "config error"


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


class InputError(ExitError, ValueError):
    """A file or model input is malformed, corrupt or mismatched."""
    exit_code, prefix = 5, "invalid input"


class DivergenceError(ExitError, RuntimeError):
    """Training produced a non-finite loss; carries last-known diagnostics."""
    exit_code, prefix = 3, "training diverged"

    def __init__(self, message: str, step: int, last_losses: list):
        super().__init__(message)
        self.step = step
        self.last_losses = last_losses

    def stderr_line(self) -> str:
        return (f"{self.prefix} at step {self.step}: {self} "
                f"(last losses {self.last_losses})")


class GateError(ExitError, RuntimeError):
    """A pretraining acceptance gate did not pass."""
    exit_code, prefix = 4, "gate failure"


class BusyError(ExitError, RuntimeError):
    """Another process holds the run directory's lock."""
    exit_code, prefix = 6, "run directory busy"
