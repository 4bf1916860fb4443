# Campaign --jobs determinism check (every *_jobs_determinism* ctest gate).
#
# Runs a harness-ported campaign binary once per worker count in JOBS
# (default "1;4") with the same flags and requires every artifact it asked
# for to be byte-identical across all of them:
#
#   csv       the result CSV (--csv), always
#   runs.csv  the per-run rows sidecar <csv stem>.runs.csv, whenever the
#             campaign writes one
#   events    the telemetry event log (--events-out), with EXPORTS events
#   metrics   the metrics export (--metrics-out), with EXPORTS metrics
#   shape     the profile shape CSV (--profile-shape), with EXPORTS shape;
#             the result CSVs must then also equal an unprofiled reference
#             run, proving the profiler never leaks into campaign results
#
# Events are sim-time stamped and exports are ordered by run index, so
# worker scheduling must not leak into any of these files. The binary's own
# exit code reflects its *shape* check, which a shrunk --runs sweep may
# legitimately fail; only a crash (abnormal exit) or a mismatch fails this
# test.
#
# Usage: cmake -DEXE=<binary> -DARGS=<common flags> -DOUT=<prefix>
#              [-DJOBS=<list>] [-DEXPORTS=<list of events|metrics|shape>]
#              -P jobs_determinism.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED EXE OR NOT DEFINED OUT)
  message(FATAL_ERROR "EXE and OUT must be defined")
endif()
if(NOT JOBS)
  set(JOBS 1 4)
endif()
separate_arguments(common_args UNIX_COMMAND "${ARGS}")
set(flag_events --events-out)
set(flag_metrics --metrics-out)
set(flag_shape --profile-shape)

function(run_campaign tag)
  execute_process(
    COMMAND ${EXE} ${common_args} --csv ${OUT}_${tag}.csv ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc MATCHES "^[01]$")
    message(FATAL_ERROR "${EXE} ${ARGN} exited abnormally: ${rc}")
  endif()
endfunction()

function(require_same a b why)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ: ${why}")
  endif()
endfunction()

foreach(jobs IN LISTS JOBS)
  set(export_args)
  foreach(kind IN LISTS EXPORTS)
    list(APPEND export_args ${flag_${kind}} ${OUT}_j${jobs}.${kind})
  endforeach()
  run_campaign(j${jobs} --jobs ${jobs} ${export_args})
endforeach()

list(GET JOBS 0 base)
set(kinds csv)
if(EXISTS ${OUT}_j${base}.runs.csv)
  list(APPEND kinds runs.csv)
endif()
set(results ${kinds})
list(APPEND kinds ${EXPORTS})
foreach(jobs IN LISTS JOBS)
  if(NOT jobs EQUAL base)
    foreach(kind IN LISTS kinds)
      require_same(${OUT}_j${base}.${kind} ${OUT}_j${jobs}.${kind}
          "parallel execution broke determinism (--jobs ${base} vs ${jobs})")
    endforeach()
  endif()
endforeach()
get_filename_component(stem ${OUT} NAME)
list(TRANSFORM kinds PREPEND ${stem}_j*. OUTPUT_VARIABLE compared)

if("shape" IN_LIST EXPORTS)
  run_campaign(ref --jobs ${base})
  foreach(jobs IN LISTS JOBS)
    foreach(kind IN LISTS results)
      require_same(${OUT}_ref.${kind} ${OUT}_j${jobs}.${kind}
          "profiling altered campaign results at --jobs ${jobs}")
    endforeach()
  endforeach()
  list(TRANSFORM results PREPEND ${stem}_ref.)
  list(APPEND compared "unprofiled ${results}")
endif()

string(REPLACE ";" ", " compared "${compared}")
string(REPLACE ";" "/" JOBS "${JOBS}")
message(STATUS "byte-identical across --jobs ${JOBS}: ${compared}")
