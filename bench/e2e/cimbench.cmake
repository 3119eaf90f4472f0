# Build hook for the end-to-end benchmark. Injected into the unchanged
# root project, in a tree of its own, by run.py:
#
#   cmake -S . -B build/bench-e2e -DCMAKE_BUILD_TYPE=Release \
#     -DCMAKE_PROJECT_cimanneal_INCLUDE=bench/e2e/cimbench.cmake \
#     -DCIMANNEAL_BUILD_TESTS=OFF -DCIMANNEAL_BUILD_BENCH=OFF \
#     -DCIMANNEAL_BUILD_EXAMPLES=OFF
#
# CMake includes this file right after project(cimanneal), before the root
# sets CMAKE_CXX_STANDARD, so the target asks for C++20 itself. The
# libraries it links are defined later by the root's add_subdirectory(src).
add_executable(cimbench
  ${CMAKE_CURRENT_LIST_DIR}/cimbench.cpp
  ${CMAKE_CURRENT_LIST_DIR}/host_speed.cpp
  ${CMAKE_CURRENT_LIST_DIR}/workloads.cpp)
target_compile_features(cimbench PRIVATE cxx_std_20)
target_link_libraries(cimbench PRIVATE
  cim_core cim_store cim_ppa cim_anneal cim_hw cim_noise cim_cluster
  cim_ising cim_qubo cim_heuristics cim_tsp cim_geo cim_util
  cimanneal_warnings)
