"""Build script: compiles the optional word-kernel extension from ``_core.pyx``.

The package is fully functional without the extension (a pure-Python
twin of every kernel ships alongside it), so any failure to cythonize
or compile degrades to a pure-Python install instead of aborting.
"""

from setuptools import setup
from setuptools.command.build_ext import build_ext


def extension_modules():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return []
    return cythonize(
        ["src/braidact/_kernels/_core.pyx"],
        compiler_directives={"language_level": "3"},
    )


class optional_build_ext(build_ext):
    """build_ext that downgrades compiler failures to a warning."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, cython, headers, ...
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"warning: compiled kernels skipped ({exc}); using pure-Python fallback")


setup(ext_modules=extension_modules(), cmdclass={"build_ext": optional_build_ext})
