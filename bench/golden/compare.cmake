# Run one figure bench and compare its stdout byte for byte with the
# committed golden TSV (ctest label `golden`, see bench/CMakeLists.txt).
#
#   cmake -DBENCH=<exe> -DOUT=<file> [-DGOLDEN=<tsv>] -P compare.cmake
#
# Without GOLDEN the bench only runs (the cache-warming fixture). The
# environment (scale, queries, datasets, cache dir) comes from the test.
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}"
                ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}:\n${err}")
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
                          "${GOLDEN}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "${OUT} differs from ${GOLDEN}. A change that moves virtual "
            "time on purpose regenerates bench/golden/ in its own diff "
            "(README, \"Golden figures\").")
  endif()
endif()
