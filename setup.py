"""Setuptools entry point.

``pip install -e .`` must give the same surface as the in-tree
``PYTHONPATH=src python -m repro`` workflow: the ``repro`` package from
``src/`` plus a ``repro`` console script wrapping the CLI.  CI's 3.12 leg
installs the package and runs tier-1 against it, so drift between the two
fails there.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Easz: an agile transformer-based image compression framework for "
        "resource-constrained IoTs (DAC 2025) — full numpy reproduction"
    ),
    long_description=(
        "Reproduction of the Easz erase-and-squeeze codec (DAC 2025) grown "
        "into a serving system: vectorized codec fast paths, compression "
        "servers (threaded, and process-sharded with one response socket per "
        "shard), edge-fleet simulation and the paper's "
        "experiment suite — pure numpy/scipy, no GPU required."
    ),
    long_description_content_type="text/plain",
    author="Easz reproduction maintainers",
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Operating System :: POSIX :: Linux",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Multimedia :: Graphics :: Graphics Conversion",
        "Topic :: System :: Distributed Computing",
    ],
    keywords="image-compression transformer edge-computing serving",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    extras_require={"test": ["pytest>=7", "hypothesis>=6"]},
    entry_points={
        "console_scripts": [
            "repro = repro.experiments.cli:main",
            "repro-lint = repro.analysis.cli:main",
        ]
    },
)
