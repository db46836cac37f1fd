# Checks that a committed bench JSON report has the same shape as a
# freshly emitted one: same `schema` value, same top-level keys, and,
# when the reports carry a `benchmarks` array, every committed entry
# present in the fresh report with the same field set. Values
# (timings, host_cores, git_rev) are not compared. A committed entry
# the emitter no longer produces fails the check, so a stale report
# cannot outlive the code that wrote it.
# Usage: cmake -DCOMMITTED=<file> -DFRESH=<file> -P check_bench_schema.cmake
cmake_minimum_required(VERSION 3.21)
foreach(var COMMITTED FRESH)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "check_bench_schema.cmake: ${var} not set")
    endif()
endforeach()
file(READ "${COMMITTED}" committed)
file(READ "${FRESH}" fresh)

# Sorted, ;-joined member names of the JSON object at path ARGN.
function(json_keys out json)
    string(JSON n LENGTH "${json}" ${ARGN})
    math(EXPR last "${n} - 1")
    set(keys "")
    foreach(i RANGE ${last})
        string(JSON k MEMBER "${json}" ${ARGN} ${i})
        list(APPEND keys "${k}")
    endforeach()
    list(SORT keys)
    set(${out} "${keys}" PARENT_SCOPE)
endfunction()

string(JSON committed_schema GET "${committed}" schema)
string(JSON fresh_schema GET "${fresh}" schema)
if(NOT committed_schema STREQUAL fresh_schema)
    message(FATAL_ERROR "schema: committed '${committed_schema}', "
                        "emitter writes '${fresh_schema}'")
endif()

json_keys(committed_top "${committed}")
json_keys(fresh_top "${fresh}")
if(NOT committed_top STREQUAL fresh_top)
    message(FATAL_ERROR "top-level keys: committed [${committed_top}], "
                        "emitter writes [${fresh_top}]")
endif()

if(NOT "benchmarks" IN_LIST fresh_top)
    message(STATUS "check_bench_schema: top-level keys match schema "
                   "${fresh_schema}")
    return()
endif()

# name -> field set of every fresh entry.
string(JSON fresh_n LENGTH "${fresh}" benchmarks)
math(EXPR fresh_last "${fresh_n} - 1")
set(fresh_names "")
foreach(i RANGE ${fresh_last})
    string(JSON name GET "${fresh}" benchmarks ${i} name)
    json_keys(fields "${fresh}" benchmarks ${i})
    list(APPEND fresh_names "${name}")
    set("fields_of_${name}" "${fields}")
endforeach()

string(JSON committed_n LENGTH "${committed}" benchmarks)
math(EXPR committed_last "${committed_n} - 1")
foreach(i RANGE ${committed_last})
    string(JSON name GET "${committed}" benchmarks ${i} name)
    if(NOT name IN_LIST fresh_names)
        message(FATAL_ERROR "entry '${name}' is committed but the "
                            "emitter no longer writes it")
    endif()
    json_keys(fields "${committed}" benchmarks ${i})
    if(NOT fields STREQUAL "${fields_of_${name}}")
        message(FATAL_ERROR "entry '${name}': committed fields "
                            "[${fields}], emitter writes "
                            "[${fields_of_${name}}]")
    endif()
endforeach()
message(STATUS "check_bench_schema: ${committed_n} committed entries "
               "match schema ${fresh_schema}")
