"""The one exception for bad user data, and how an input takes the blame."""
import contextlib


class InputError(ValueError):
    """Raised by every check on user data; any other exception is a bug.
    ``input`` names the input at fault by its argument name, or is None."""

    def __init__(self, message: str, input: str | None = None):
        super().__init__(message)
        self.input = input


@contextlib.contextmanager
def blaming(input: str):
    """An InputError that names no input, or a bad encoding, raised inside is ``input``'s."""
    try:
        yield
    except InputError as exc:
        exc.input = exc.input or input
        raise
    except UnicodeDecodeError as exc:
        raise InputError(str(exc), input) from None
