"""FFT call counter shared by the transform-budget tests."""

import numpy as np


class FFTCounter:
    """Counts the transforms numpy.fft makes while installed.

    A full 2D call counts one transform: n x n if its input is n x n,
    padded otherwise.  One-axis calls count the lines they transform, so a
    pass split into column blocks counts as much as the whole pass: an
    n x n transform is 2n lines of length n (a pass along each axis), a
    padded 2n x 2n one is 2n + 1 lines of length 2n (n rows, since the
    padding rows are zero, and n + 1 columns of the half spectrum).  A
    one-axis call of any other length fails.
    """

    NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

    def __init__(self, monkeypatch, n):
        self.n = n
        self.busy = False
        self.n2 = self.n2_lines = self.padded2d = self.lines = 0
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
                axis_len = np.shape(a)[kwargs.get("axis", -1)]
                length = kwargs.get("n") or axis_len
                assert length in (self.n, 2 * self.n), f"{name} of length {length}"
                lines = np.size(a) // axis_len
                if length == self.n:
                    self.n2_lines += lines
                else:
                    self.lines += lines
            return out

        return counted

    def take(self):
        """(n x n transforms, padded transforms) since the last take."""
        got = (self.n2 + self.n2_lines / (2 * self.n),
               self.padded2d + self.lines / (2 * self.n + 1))
        self.n2 = self.n2_lines = self.padded2d = self.lines = 0
        return got
