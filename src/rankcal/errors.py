"""Exception hierarchy for the calibration toolkit."""


class CalibrationError(Exception):
    """Base class for all toolkit errors."""


class Infeasible(CalibrationError):
    """The quadratic program has an empty feasible region."""


class MaxIterations(CalibrationError):
    """An iterative solver exhausted its iteration budget."""


class DegenerateChannel(CalibrationError):
    """A channel carries too few distinct rendered values to rank."""


class InsufficientData(CalibrationError):
    """Too few samples for the requested fit."""


class DegenerateSpan(CalibrationError):
    """Sample abscissae are too clustered to support a fit."""


class DegenerateGeometry(CalibrationError):
    """Input points are coplanar or otherwise rank deficient."""


class SingularMatrix(CalibrationError):
    """The colour-correction matrix is not invertible."""


class EmptyCorpus(CalibrationError):
    """A corpus file contains no data rows."""


class InsufficientVariety(CalibrationError):
    """A subset request exceeds the distinct ids or entries available."""


class CorpusFormatError(CalibrationError):
    """A corpus file is malformed; the message carries the line number."""


class ModelParseError(CalibrationError):
    """A model file is malformed; the message names the offending key."""
