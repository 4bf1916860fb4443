# Committed-results check (ctest: results_match).
#
# Regenerates every committed result CSV of the experiment binaries at
# their default arguments and requires each to be byte-identical to its
# copy under RESULTS: results/<program>.csv for every exp_* and fig*
# program, plus the per-run sidecar results/<program>.runs.csv. A program
# that writes a sidecar with no committed copy fails too, so every
# sidecar stays covered. Each program runs in its own empty directory
# (they write their CSVs into the working directory) and must exit 0:
# its exit code is its shape check.
#
# Usage: cmake -DBIN_DIR=<dir of the bench binaries> -DRESULTS=<results dir>
#              -DOUT=<scratch dir> -P results_match.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED BIN_DIR OR NOT DEFINED RESULTS OR NOT DEFINED OUT)
  message(FATAL_ERROR "BIN_DIR, RESULTS and OUT must be defined")
endif()

file(GLOB committed RELATIVE ${RESULTS}
     ${RESULTS}/exp_*.csv ${RESULTS}/fig*.csv)
set(programs)
foreach(name IN LISTS committed)
  if(NOT name MATCHES "\\.runs\\.csv$")
    string(REGEX REPLACE "\\.csv$" "" program ${name})
    list(APPEND programs ${program})
  endif()
endforeach()
if(NOT programs)
  message(FATAL_ERROR "no committed exp_*/fig* CSVs under ${RESULTS}")
endif()

set(failures)
foreach(program IN LISTS programs)
  set(dir ${OUT}/${program})
  file(REMOVE_RECURSE ${dir})
  file(MAKE_DIRECTORY ${dir})
  execute_process(COMMAND ${BIN_DIR}/${program}
                  WORKING_DIRECTORY ${dir}
                  RESULT_VARIABLE rc
                  OUTPUT_FILE ${dir}/stdout.txt
                  ERROR_FILE ${dir}/stderr.txt)
  if(NOT rc EQUAL 0)
    list(APPEND failures "${program}: exit ${rc} (shape check, see ${dir})")
  endif()
  foreach(file ${program}.csv ${program}.runs.csv)
    set(committed_copy ${RESULTS}/${file})
    if(EXISTS ${committed_copy})
      execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                              ${dir}/${file} ${committed_copy}
                      RESULT_VARIABLE differ)
      if(NOT differ EQUAL 0)
        list(APPEND failures "${file}: differs from ${committed_copy}")
      endif()
    elseif(EXISTS ${dir}/${file})
      list(APPEND failures "${file}: written but not committed under ${RESULTS}")
    endif()
  endforeach()
endforeach()

list(LENGTH programs count)
if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "results_match: ${count} programs, failures:\n  ${report}")
endif()
message(STATUS "results_match: ${count} programs reproduce their committed CSVs")
