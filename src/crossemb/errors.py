"""Exception types shared across the pipeline.

Every error pickles to its own type, message and attributes, so that one
raised in a worker process reaches the caller intact: a subclass whose
constructor does not take the message alone defines `__reduce__` from
its constructor arguments."""


class CrossembError(Exception):
    """Base class for all library errors."""


class DegenerateRotation6D(CrossembError):
    """6D rotation code has a near-zero or near-parallel column pair."""


class InvalidComponent(CrossembError):
    """A state component is non-finite or fails rotation decoding."""


class EmptyDataset(CrossembError):
    """Statistics requested over zero frames."""


class DegenerateTrajectory(CrossembError):
    """Trajectory has fewer than two frames or non-increasing timestamps."""


class EmptyStream(CrossembError):
    """Stream synchronization received an empty input stream."""


class DimensionMismatch(CrossembError):
    """Array argument has the wrong length or shape."""


class NonFiniteTarget(CrossembError):
    """IK target pose contains NaN or Inf."""


class RetargetFailure(CrossembError):
    """Retargeting received non-finite inputs."""


class ParseError(CrossembError):
    """A raw capture line (`line_no`) or a command-line flag's value (`flag`)
    failed to parse."""

    def __init__(self, line_no: int | None, reason: str, flag: str | None = None):
        super().__init__(f"{flag if flag else f'line {line_no}'}: {reason}")
        self.line_no = line_no
        self.flag = flag
        self.reason = reason

    def __reduce__(self):
        return type(self), (self.line_no, self.reason, self.flag)


class InvalidMetadata(CrossembError):
    """A capture's meta.json, a dataset's manifest.json or an embodiment
    config file is unparsable, not a JSON object, or lacks or mistypes a
    required field."""


class ConfigRequired(CrossembError):
    """A robot capture was ingested without an embodiment config."""


class UnreadableFile(CrossembError):
    """An input path is a directory, or a file that cannot be read or decoded."""


class FrameSyncExhausted(CrossembError):
    """Timestamp synchronization left fewer than two usable frames."""


class BodyMotionRejected(CrossembError):
    """Episode rejected: head excursion exceeds the body-motion threshold."""

    def __init__(self, excursion_m: float, threshold_m: float):
        super().__init__(
            f"head excursion {excursion_m:.3f} m exceeds threshold {threshold_m:.3f} m"
        )
        self.excursion_m = excursion_m
        self.threshold_m = threshold_m

    def __reduce__(self):
        return type(self), (self.excursion_m, self.threshold_m)


class ChecksumMismatch(CrossembError):
    """Stored episode bytes do not match the manifest checksum."""


class VersionUnsupported(CrossembError):
    """Dataset or checkpoint format version is not supported."""


class CorruptCheckpoint(CrossembError):
    """Checkpoint header is undecodable, holds invalid normalization
    statistics, or disagrees with the bytes after it."""


class CorruptEpisode(CrossembError):
    """Episode file header disagrees with the bytes after it."""


class EpisodeTooShort(CrossembError):
    """Episode has too few frames to extract a training pair."""


class EmptySource(CrossembError):
    """Mixed sampler was given a tag with no pairs."""

    def __init__(self, tag: str):
        super().__init__(f"pair source for tag {tag!r} is empty")
        self.tag = tag

    def __reduce__(self):
        return type(self), (self.tag,)


class NonFiniteLoss(CrossembError):
    """Training loss became NaN or Inf."""
