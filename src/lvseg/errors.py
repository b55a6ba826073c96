"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: contract violations exit 2,
I/O and format problems exit 3.
"""


class ContractViolation(ValueError):
    """A caller broke a documented precondition."""


class FormatError(RuntimeError):
    """A file on disk does not match its declared format."""


class MeasurementError(RuntimeError):
    """The geometric measurement pipeline cannot proceed on this mask."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during optimization."""


class TrainingHelperError(RuntimeError):
    """The helper process that trains beside ``train`` died or failed mid-fold."""


class NonFiniteLogits(RuntimeError):
    """A model's weights are finite but its logits are not: they have blown up."""
