"""Exception types shared across the package, and the shared number check."""

import math


class ContactNewtonError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ContactNewtonError, ValueError):
    """Operands have incompatible shapes."""


class NotSPDError(ContactNewtonError):
    """A matrix expected to be symmetric positive definite is not.

    Usually signals bad material or mass parameters (non-positive mass,
    negative stiffness, zero time step).
    """


class DegenerateTetError(ContactNewtonError, ValueError):
    """A tetrahedron has non-positive signed volume in the rest configuration."""


class NonFiniteForceError(ContactNewtonError, ValueError):
    """An assembled stiffness or force vector contains NaN or infinity."""


class NonFiniteStateError(ContactNewtonError, ValueError):
    """A step would commit NaN or infinite positions or velocities, or the
    contact solve was handed a NaN or infinite compliance or violation."""


class InvalidAttachmentError(ContactNewtonError, ValueError):
    """A proximity attachment references a missing mesh entity."""


class DegenerateFrameError(ContactNewtonError):
    """No contact normal can be determined for a proximity pair."""


class SingularBlockError(ContactNewtonError):
    """A per-group diagonal block of the compliance matrix is not invertible."""


class ParseError(ContactNewtonError, ValueError):
    """A scene, mesh, or spec file could not be parsed."""


class ValidationError(ContactNewtonError, ValueError):
    """A parsed configuration violates an invariant."""


# from 2**53 on a float no longer holds every whole number exactly
MAX_WHOLE = 2**53


def as_number(value, where, kind=float):
    """``value`` as a finite float, or with ``kind=int`` as a whole number (no
    truncation) of size below :data:`MAX_WHOLE`.

    Raises :class:`ValidationError` naming ``where`` otherwise; a bool
    (YAML ``true``/``false``) is not a number, though Python counts it as one.
    """
    if isinstance(value, bool):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    except (TypeError, ValueError):
        raise ValidationError(f"{where}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValidationError(f"{where}: expected a finite number, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ValidationError(f"{where}: expected a whole number, got {value!r}")
        if abs(number) >= MAX_WHOLE:
            raise ValidationError(f"{where}: expected a whole number of size below 2**53, "
                                  f"got {value!r}")
        return int(number)
    return number
