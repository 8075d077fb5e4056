"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A run configuration failed validation (usage error, exit code 1)."""


class TraceFormatError(ValueError):
    """A trace or estimates file is malformed (data error, exit code 2)."""


class AssumptionViolation(RuntimeError):
    """The modelled drift assumptions broke down mid-run (exit code 3)."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None
                         else f"{message} (at step {step})")
        self.step = step


def a_or_an(noun):
    """``noun`` after its indefinite article, as error messages write
    it: "an" before a vowel letter, else "a"."""
    return ("an " if noun[0] in "aeiou" else "a ") + noun
