# Passed as CMAKE_PROJECT_INCLUDE when run.py configures the
# repository's own CMake project. It defers the benchmark's build file
# until the root CMakeLists.txt is done, so the benchmark builds
# against the repository's library targets with the repository's
# compile settings.
cmake_language(EVAL CODE
    "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
