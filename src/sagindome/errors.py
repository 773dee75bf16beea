"""Exception hierarchy shared by all modules."""


class SaginDomeError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(SaginDomeError, ValueError):
    """A scalar input is outside its documented range."""


class InvalidGeometryError(SaginDomeError, ValueError):
    """Radii or altitudes are ordered inconsistently with the link direction."""


class DescriptorError(SaginDomeError, ValueError):
    """A scenario descriptor is malformed or inconsistent."""


class OutputError(SaginDomeError, OSError):
    """An output file could not be written."""
