# ctest script: runs paper_figures with ARGS and compares the SHA-256 of
# its stdout with SHA256.  Invoked as
#   cmake -DBIN=<paper_figures> -DARGS=<;-list> -DSHA256=<hex> -P pinned_output.cmake
set(ENV{FTMESH_FULL} "")
execute_process(COMMAND ${BIN} ${ARGS} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
string(SHA256 got "${out}")
if(NOT got STREQUAL SHA256)
  message(FATAL_ERROR "stdout SHA-256 ${got}, pinned ${SHA256}\n${out}")
endif()
