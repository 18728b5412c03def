"""Package metadata for ``pip install -e .``.

There is no ``pyproject.toml``: this file is the whole build
configuration. The sources live under ``src/`` and the version is
read from ``src/repro/version.py`` (without importing the package, so
the install needs nothing but setuptools).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "version.py"

setup(
    name="repro",
    version=re.search(r'__version__ = "([^"]+)"', _VERSION_FILE.read_text()).group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
