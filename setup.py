"""Setup shim so ``pip install -e .`` works without the ``wheel`` package.

The offline environment lacks ``wheel``, which PEP 517 editable installs
require; the legacy ``setup.py develop`` path (``pip install -e .
--no-use-pep517 --no-build-isolation``) does not.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"fig7": ["scipy"]},
)
