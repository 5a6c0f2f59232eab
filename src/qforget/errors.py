"""Error types shared across the package.

Each class marks a distinct failure kind so callers (and the CLI exit-code
mapping) can tell contract violations, bad files, and training blow-ups apart.
"""


class ShapeError(ValueError):
    """Operand shapes are incompatible (message names both shapes)."""


class ConfigError(ValueError):
    """A configuration object violates its invariants."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


class CapacityError(ConfigError):
    """A generation request exceeds the fixed pools it draws from."""


class InputError(ValueError):
    """Model input is out of range (sequence too long, bad token id)."""


class SchemaError(ValueError):
    """A run-directory file (checkpoint, corpus, metric cell) is malformed."""


class ChecksumError(ValueError):
    """A checkpoint blob fails its integrity check (corrupt or truncated)."""


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
