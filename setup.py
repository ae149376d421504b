"""Setuptools entry point (the repo's only packaging file).

numpy is the one runtime dependency.  scipy is optional: nothing in ``src/``
imports it unless a caller asks for ``to_scipy()`` or hands in a scipy matrix,
and the test-suite uses it as the oracle the CSR kernels are checked against.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of Snorkel: Rapid Training Data Creation with Weak Supervision "
        "(Ratner et al., VLDB 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "scipy": ["scipy>=1.10"],
        "test": ["scipy>=1.10", "pytest", "hypothesis"],
    },
)
