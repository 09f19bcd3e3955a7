"""Exception hierarchy with CLI exit-code categories."""


class DinsatError(Exception):
    """Base class; category and exit_code drive CLI error reporting."""

    category = "error"
    exit_code = 1


class ConfigError(DinsatError):
    category = "config-error"
    exit_code = 2


class DataError(DinsatError):
    category = "data-error"
    exit_code = 3


class EmptyInputError(DataError):
    category = "empty-input-error"


class InvalidDatasetError(DataError):
    category = "invalid-dataset-error"


class ShapeError(DataError):
    category = "shape-error"


class ParseError(DataError):
    category = "parse-error"


class CorruptFileError(DataError):
    category = "corrupt-file-error"


class UnsupportedFormatError(DataError):
    category = "unsupported-format-error"


class NumericError(DinsatError):
    category = "numeric-error"
    exit_code = 4
