"""FFT call counter shared by the transform-budget tests."""

import numpy as np


class FFTCounter:
    """Counts the numpy.fft calls made while installed.

    n x n transforms count one per full 2D call, or one per pair of
    length-n one-axis calls; a padded 2n x 2n transform counts one per full
    2D call, or one per pair of length-2n one-axis calls.  A one-axis call
    of any other length fails.
    """

    NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

    def __init__(self, monkeypatch, n):
        self.n = n
        self.busy = False
        self.n2 = self.n2_axis = self.padded2d = self.axis = 0
        for name in self.NAMES:
            monkeypatch.setattr(np.fft, name, self._wrap(getattr(np.fft, name), name))

    def _wrap(self, fn, name):
        def counted(a, *args, **kwargs):
            if self.busy:
                return fn(a, *args, **kwargs)
            self.busy = True
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self.busy = False
            assert np.ndim(a) == 2, f"{name} on shape {np.shape(a)}"
            if name[-1] in "2n":
                if np.shape(a) == (self.n, self.n):
                    self.n2 += 1
                else:
                    self.padded2d += 1
            else:
                length = kwargs.get("n") or np.shape(a)[kwargs.get("axis", -1)]
                assert length in (self.n, 2 * self.n), f"{name} of length {length}"
                if length == self.n:
                    self.n2_axis += 1
                else:
                    self.axis += 1
            return out

        return counted

    def take(self):
        """(n x n transforms, padded transforms) since the last take."""
        got = (self.n2 + self.n2_axis / 2, self.padded2d + self.axis / 2)
        self.n2 = self.n2_axis = self.padded2d = self.axis = 0
        return got
