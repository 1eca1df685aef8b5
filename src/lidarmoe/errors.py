"""The package's exceptions: every bad config, dataset, checkpoint or file
raises a :class:`LidarMoeError`, which the CLI reports with exit code 2."""


class LidarMoeError(Exception):
    """Bad input: a config, dataset, checkpoint or file the package rejects."""


class NonFiniteError(LidarMoeError):
    """An operation produced NaN or Inf."""


class CheckpointError(LidarMoeError):
    """Corrupt checkpoint file or manifest mismatch."""
