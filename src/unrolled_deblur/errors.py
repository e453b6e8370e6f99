"""Exception types shared across the toolkit.

Every detectable failure raises one of these; numerical code never returns
NaN/Inf silently in place of an error.
"""


class DeblurError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(DeblurError):
    """Operands that must share a shape do not."""


class ImaginaryResidue(DeblurError):
    """An inverse DFT discarded non-negligible imaginary energy."""


class KernelTooLarge(DeblurError):
    """A kernel or filter does not fit on the target grid."""


class EvenSize(DeblurError):
    """A kernel or window size is even where odd is required."""


class SupportTooSmall(DeblurError):
    """A kernel support cannot hold the requested motion."""


class UnsupportedFormat(DeblurError):
    """A file is in a format this toolkit does not read."""


class CorruptHeader(DeblurError):
    """A file header or manifest row could not be parsed."""


class TruncatedData(DeblurError):
    """A file ended before its declared payload."""


class NotNormalized(DeblurError):
    """A stored kernel's weights are too far from summing to one."""


class NegativeWeight(DeblurError):
    """A stored kernel contains a negative weight."""


class EmptyDirectory(DeblurError):
    """An input directory holds no candidate files."""


class NoUsableImages(DeblurError):
    """An input directory holds candidates but none are usable."""


class NonFiniteInput(DeblurError):
    """An input array holds NaN or Inf where finite values are required."""


class ImageTooSmall(DeblurError):
    """An image is smaller than the requested patch or window."""


class InvalidParameter(DeblurError, ValueError):
    """A model parameter lies outside its valid range."""


class SingularDenominator(DeblurError):
    """A frequency-domain denominator fell below the safe floor."""


class UnrecordedNode(DeblurError):
    """backward() met a non-leaf node with no recorded adjoint rule."""


class ReleasedValue(DeblurError):
    """A tape node's value was read after the forward released it."""


class NonFiniteLoss(DeblurError):
    """Training produced a NaN or Inf loss."""


class VersionMismatch(DeblurError):
    """A checkpoint was written by an incompatible format version."""


class CorruptCheckpoint(DeblurError):
    """A checkpoint file failed structural validation."""


class ConfigMismatch(DeblurError):
    """A resumed run was given a config that disagrees with the checkpoint."""
